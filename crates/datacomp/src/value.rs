//! The value model: what lives in a relational cell, an OO field, or an XML
//! attribute. Deliberately small and totally ordered, so operators can sort,
//! hash and compare without panicking.

use std::cmp::Ordering;
use std::fmt;

/// A scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent/unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalised to `Null` at construction via
    /// [`Value::float`].
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Construct a float, normalising NaN to `Null` so ordering is total.
    #[must_use]
    pub fn float(f: f64) -> Self {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Float(f)
        }
    }

    /// Construct a string value.
    #[must_use]
    pub fn str(s: &str) -> Self {
        Value::Str(s.to_owned())
    }

    /// Whether this is `Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and floats as f64, everything else `None`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate serialised size in bytes (used for bandwidth/cost
    /// accounting).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Bool < numerics (Int/Float compared numerically)
    /// < Str. NaN cannot occur (normalised at construction).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if a.rank() == 2 && b.rank() == 2 => {
                let (x, y) = (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0));
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                // Hash ints and integral floats identically so Int(2) and
                // Float(2.0), which compare equal, hash equal.
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // -0.0 == 0.0, so both hash as +0.0.
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn nan_is_normalised_to_null() {
        assert_eq!(Value::float(f64::NAN), Value::Null);
        assert_eq!(Value::float(1.5), Value::Float(1.5));
    }

    #[test]
    fn total_order_across_types() {
        let mut vs = vec![
            Value::str("abc"),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(3),
                Value::str("abc"),
            ]
        );
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(3.5) > Value::Int(3));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_ne!(h(&Value::Int(7)), h(&Value::Int(8)));
    }

    #[test]
    fn values_that_compare_equal_hash_equal() {
        let grid = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(2),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(-1.0),
            Value::Float(2.0),
            Value::Float(0.5),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("0"),
        ];
        let mut equal_pairs = 0;
        for a in &grid {
            for b in &grid {
                if a == b {
                    equal_pairs += 1;
                    assert_eq!(h(a), h(b), "{a:?} == {b:?} but they hash apart");
                }
            }
        }
        // Every value equals itself; the signed zeros also equal each other.
        assert_eq!(equal_pairs, grid.len() + 2);
    }

    #[test]
    fn views_and_sizes() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::str("hi").size_bytes(), 2);
        assert_eq!(Value::Int(0).size_bytes(), 8);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("x").to_string(), "x");
    }
}
