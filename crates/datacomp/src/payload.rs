//! The three payload shapes of Figure 2: "OO structured data concerned with
//! a person or a relational table used for transaction processing or an XML
//! stream".

use crate::schema::Table;
use crate::value::Value;
use crate::xml::{write_events, XmlEvent};
use std::collections::BTreeMap;

/// An object (OO) record: a field map with nested objects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    /// Scalar fields.
    pub fields: BTreeMap<String, Value>,
    /// Nested objects.
    pub children: BTreeMap<String, Object>,
}

impl Object {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a scalar field (builder style).
    #[must_use]
    pub fn with(mut self, key: &str, v: Value) -> Self {
        self.fields.insert(key.to_owned(), v);
        self
    }

    /// Set a nested object (builder style).
    #[must_use]
    pub fn with_child(mut self, key: &str, o: Object) -> Self {
        self.children.insert(key.to_owned(), o);
        self
    }

    /// Look up a scalar by dotted path (`"address.city"`).
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&Value> {
        match path.split_once('.') {
            None => self.fields.get(path),
            Some((head, rest)) => self.children.get(head)?.get(rest),
        }
    }

    /// Approximate serialised size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        let own: u64 = self.fields.iter().map(|(k, v)| k.len() as u64 + v.size_bytes()).sum();
        own + self.children.iter().map(|(k, o)| k.len() as u64 + o.size_bytes()).sum::<u64>()
    }
}

/// A data component's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A relational table.
    Relational(Table),
    /// An OO record.
    Object(Object),
    /// An XML event stream.
    XmlStream(Vec<XmlEvent>),
}

impl Payload {
    /// Approximate serialised size in bytes — what shipping the payload over
    /// a link costs.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        match self {
            Payload::Relational(t) => t.size_bytes(),
            Payload::Object(o) => o.size_bytes(),
            Payload::XmlStream(ev) => write_events(ev).len() as u64,
        }
    }

    /// Serialise the payload to bytes (for compression, shipping, hashing).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Payload::Relational(t) => {
                let mut out = Vec::new();
                for row in t.rows() {
                    for v in row.iter() {
                        out.extend_from_slice(v.to_string().as_bytes());
                        out.push(b'\x1f');
                    }
                    out.push(b'\n');
                }
                out
            }
            Payload::Object(o) => format!("{o:?}").into_bytes(),
            Payload::XmlStream(ev) => write_events(ev).into_bytes(),
        }
    }

    /// A human label for the payload kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Relational(_) => "relational",
            Payload::Object(_) => "object",
            Payload::XmlStream(_) => "xml-stream",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::xml::sensor_reading;

    #[test]
    fn object_paths() {
        // The paper's "Personal data <id, name, address, age, metadata etc>".
        let person = Object::new()
            .with("id", Value::Int(7))
            .with("name", Value::str("Ada"))
            .with("age", Value::Int(36))
            .with_child("address", Object::new().with("city", Value::str("London")));
        assert_eq!(person.get("name"), Some(&Value::str("Ada")));
        assert_eq!(person.get("address.city"), Some(&Value::str("London")));
        assert_eq!(person.get("address.street"), None);
        assert_eq!(person.get("ghost.x"), None);
        assert!(person.size_bytes() > 0);
    }

    #[test]
    fn payload_kinds_and_sizes() {
        let schema = Schema::new(&[("id", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::Int(1)]).unwrap();
        let rel = Payload::Relational(t);
        assert_eq!(rel.kind(), "relational");
        assert_eq!(rel.size_bytes(), 8);

        let xml = Payload::XmlStream(sensor_reading("t", 0, 1.0));
        assert_eq!(xml.kind(), "xml-stream");
        assert_eq!(xml.size_bytes(), xml.to_bytes().len() as u64);
    }

    #[test]
    fn relational_bytes_are_row_separated() {
        let schema = Schema::new(&[("a", ColumnType::Int), ("b", ColumnType::Str)]).unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("y")]).unwrap();
        let bytes = Payload::Relational(t).to_bytes();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);
    }
}
