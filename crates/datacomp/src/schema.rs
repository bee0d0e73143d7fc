//! Relational schema and tables — one of the three Figure 2 payload shapes
//! ("a relational table used for transaction processing") and the substrate
//! the `query` crate's operators run over.

use crate::value::Value;
use std::fmt;
use std::rc::Rc;

/// A column's declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Booleans.
    Bool,
    /// 64-bit integers.
    Int,
    /// 64-bit floats.
    Float,
    /// Strings.
    Str,
}

impl ColumnType {
    /// Whether a value inhabits this type (`Null` inhabits every type).
    #[must_use]
    pub(crate) fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Str, Value::Str(_))
        )
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within a schema.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

/// A row: one value per schema column, immutable and shared, so a clone
/// bumps a reference count instead of copying values.
pub type Row = Rc<[Value]>;

/// The row `l` followed by the row `r`: a join's output row.
#[must_use]
pub fn concat(l: &Row, r: &Row) -> Row {
    l.iter().chain(r.iter()).cloned().collect()
}

/// A relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

/// Schema/typing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Duplicate column name.
    DuplicateColumn(String),
    /// A row has the wrong arity.
    Arity {
        /// Expected column count.
        expected: usize,
        /// Supplied value count.
        got: usize,
    },
    /// A value does not inhabit its column's type.
    TypeMismatch {
        /// The column.
        column: String,
        /// Rendered offending value.
        value: String,
    },
    /// Unknown column name.
    UnknownColumn(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateColumn(c) => write!(f, "duplicate column `{c}`"),
            SchemaError::Arity { expected, got } => {
                write!(f, "row arity {got}, schema has {expected} columns")
            }
            SchemaError::TypeMismatch { column, value } => {
                write!(f, "value `{value}` does not fit column `{column}`")
            }
            SchemaError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl Schema {
    /// Build a schema from (name, type) pairs.
    ///
    /// # Errors
    /// [`SchemaError::DuplicateColumn`].
    pub fn new(cols: &[(&str, ColumnType)]) -> Result<Self, SchemaError> {
        let mut columns = Vec::with_capacity(cols.len());
        for (name, ty) in cols {
            if columns.iter().any(|c: &Column| c.name == *name) {
                return Err(SchemaError::DuplicateColumn((*name).to_owned()));
            }
            columns.push(Column { name: (*name).to_owned(), ty: *ty });
        }
        Ok(Self { columns })
    }

    /// The columns.
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Typecheck one row.
    ///
    /// # Errors
    /// [`SchemaError::Arity`] or [`SchemaError::TypeMismatch`].
    pub fn check(&self, row: &[Value]) -> Result<(), SchemaError> {
        if row.len() != self.columns.len() {
            return Err(SchemaError::Arity { expected: self.columns.len(), got: row.len() });
        }
        for (col, v) in self.columns.iter().zip(row) {
            if !col.ty.admits(v) {
                return Err(SchemaError::TypeMismatch {
                    column: col.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Concatenate two schemas (for join outputs), disambiguating duplicate
    /// names with a `right_` prefix.
    #[must_use]
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        for c in &other.columns {
            let name = if columns.iter().any(|e| e.name == c.name) {
                format!("right_{}", c.name)
            } else {
                c.name.clone()
            };
            columns.push(Column { name, ty: c.ty });
        }
        Schema { columns }
    }
}

/// A typed in-memory relation. Clones share the rows; an insert into a
/// shared table copies the row list first (copy-on-write).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    schema: Schema,
    rows: Rc<Vec<Row>>,
}

impl Table {
    /// An empty table with the given schema.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        Self { schema, rows: Rc::default() }
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Insert a row, typechecking it.
    ///
    /// # Errors
    /// [`SchemaError`] on arity or type violations.
    pub fn insert(&mut self, row: impl Into<Row>) -> Result<(), SchemaError> {
        let row = row.into();
        self.schema.check(&row)?;
        Rc::make_mut(&mut self.rows).push(row);
        Ok(())
    }

    /// The rows.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.rows.iter().flat_map(|r| r.iter().map(Value::size_bytes)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_schema() -> Schema {
        Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str), ("age", ColumnType::Int)])
            .unwrap()
    }

    #[test]
    fn build_and_index() {
        let s = person_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.columns()[1].name, "name");
    }

    #[test]
    fn duplicate_column_rejected() {
        assert!(matches!(
            Schema::new(&[("a", ColumnType::Int), ("a", ColumnType::Str)]),
            Err(SchemaError::DuplicateColumn(_))
        ));
    }

    #[test]
    fn insert_typechecks() {
        let mut t = Table::new(person_schema());
        t.insert(vec![Value::Int(1), Value::str("ada"), Value::Int(36)]).unwrap();
        assert!(matches!(
            t.insert(vec![Value::Int(2), Value::Int(9), Value::Int(1)]),
            Err(SchemaError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::Int(2)]),
            Err(SchemaError::Arity { expected: 3, got: 1 })
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn null_fits_any_column() {
        let mut t = Table::new(person_schema());
        t.insert(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clones_share_rows_and_copy_on_write() {
        let mut original = Table::new(person_schema());
        original.insert(vec![Value::Int(1), Value::str("ada"), Value::Int(36)]).unwrap();
        let before = original.rows().as_ptr();
        let mut copy = original.clone();
        assert_eq!(copy.rows().as_ptr(), before, "a clone shares the row list");
        copy.insert(vec![Value::Int(2), Value::str("bob"), Value::Int(41)]).unwrap();
        assert_eq!((original.len(), copy.len()), (1, 2), "the insert went to the clone only");
        assert_eq!(*original.rows()[0], [Value::Int(1), Value::str("ada"), Value::Int(36)]);
        assert_eq!(original.rows().as_ptr(), before, "the original's rows did not move");
        assert!(Rc::ptr_eq(&original.rows()[0], &copy.rows()[0]), "rows are shared, not copied");
    }

    #[test]
    fn join_schema_disambiguates() {
        let a = Schema::new(&[("id", ColumnType::Int), ("x", ColumnType::Str)]).unwrap();
        let b = Schema::new(&[("id", ColumnType::Int), ("y", ColumnType::Str)]).unwrap();
        let j = a.join(&b);
        let names: Vec<&str> = j.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["id", "x", "right_id", "y"]);
    }

    #[test]
    fn size_accounts_values() {
        let mut t = Table::new(person_schema());
        t.insert(vec![Value::Int(1), Value::str("ab"), Value::Int(3)]).unwrap();
        assert_eq!(t.size_bytes(), 8 + 2 + 8);
    }
}
