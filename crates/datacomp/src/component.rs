//! The assembled data component of Figure 2: payload + metadata +
//! adaptability-rule references + version list.
//!
//! The component stores *references* to its adaptability rules (the rule
//! ids the Session Manager's `RuleSet` holds) rather than the rules
//! themselves — "a copy of the switching rules relevant to it" travels with
//! the component, while evaluation stays in the session loop. This keeps
//! `datacomp` decoupled from the runtime crate.

use crate::metadata::Metadata;
use crate::payload::Payload;
use crate::version::{SelectionConstraints, Version, VersionKind, VersionList};

/// A reference to an adaptability rule held by the session's rule set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRef {
    /// The rule id (the paper's constraint numbers: 450, 455, 595...).
    pub id: u32,
    /// Human-readable description of the constraint.
    pub description: String,
}

/// A data component (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DataComponent {
    /// Component name.
    pub name: String,
    /// The authoritative payload.
    pub payload: Payload,
    /// Metadata: statistics and their staleness.
    pub metadata: Metadata,
    /// References to the adaptability rules that govern this component.
    pub rules: Vec<RuleRef>,
    /// Alternative versions.
    pub versions: VersionList,
    next_version_id: u32,
}

impl DataComponent {
    /// A component with the given payload and empty metadata/rules/versions.
    #[must_use]
    pub fn new(name: &str, payload: Payload) -> Self {
        Self {
            name: name.to_owned(),
            payload,
            metadata: Metadata::default(),
            rules: Vec::new(),
            versions: VersionList::new(),
            next_version_id: 1,
        }
    }

    /// Attach a rule reference (builder style).
    #[must_use]
    pub fn with_rule(mut self, id: u32, description: &str) -> Self {
        self.rules.push(RuleRef { id, description: description.to_owned() });
        self
    }

    /// Register a remote replica at `location`, `age` ticks stale.
    pub fn add_replica(&mut self, location: &str, age: u64) -> u32 {
        let id = self.alloc_id();
        self.versions.add(Version {
            id,
            location: location.to_owned(),
            kind: VersionKind::Replica,
            size_bytes: self.payload.size_bytes(),
            age,
        });
        id
    }

    /// `BEST` over this component's versions.
    ///
    /// # Errors
    /// [`crate::version::SelectError`] when nothing satisfies.
    pub fn best_version(
        &self,
        c: &SelectionConstraints,
    ) -> Result<&Version, crate::version::SelectError> {
        self.versions.best(c)
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_version_id;
        self.next_version_id += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema, Table};
    use crate::value::Value;
    use crate::xml::sensor_reading;

    fn stream_component() -> DataComponent {
        let mut events = Vec::new();
        for t in 0..100 {
            events.extend(sensor_reading("temp", t, 20.0 + (t % 5) as f64));
        }
        DataComponent::new("sensor-feed", Payload::XmlStream(events))
            .with_rule(595, "if bandwidth > 30 < 100 Kbps then BEST(...)")
    }

    #[test]
    fn best_version_prefers_compressed_on_slow_links() {
        let mut c = stream_component();
        let replica = c.add_replica("laptop", 0);
        let size_bytes = c.versions.all()[0].size_bytes / 3;
        c.versions.add(Version {
            id: replica + 1,
            location: "laptop".into(),
            kind: VersionKind::Compressed { codec: "lz".into() },
            size_bytes,
            age: 0,
        });
        let slow = SelectionConstraints { min_quality: 1.0, bandwidth: 1.0, ..Default::default() };
        let best = c.best_version(&slow).unwrap();
        assert!(matches!(best.kind, VersionKind::Compressed { .. }));
    }

    #[test]
    fn relational_component_with_metadata() {
        let schema = Schema::new(&[("id", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..10 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        let md = Metadata::fresh(&t);
        let mut c = DataComponent::new("orders", Payload::Relational(t));
        c.metadata = md;
        assert_eq!(c.metadata.stats.as_ref().unwrap().rows, 10);
        assert_eq!(c.rules.len(), 0);
    }

    #[test]
    fn version_ids_are_unique_and_monotonic() {
        let mut c = stream_component();
        let a = c.add_replica("n1", 0);
        let b = c.add_replica("n2", 0);
        let d = c.add_replica("n3", 0);
        assert!(a < b && b < d);
        assert_eq!(c.versions.len(), 3);
    }
}
