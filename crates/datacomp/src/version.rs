//! The version list: "indications of where alternatives can be found.
//! Versions are not necessarily exact replicas; they could be compressed
//! versions of the data (perhaps with associated decompression code) or be
//! out-of-date. They also could be lower quality versions or summaries."
//!
//! [`VersionList::best`] is the machinery behind the paper's `Select BEST`
//! constraint: given the current link bandwidth and the query's tolerance
//! for staleness and quality loss, choose the version with the lowest
//! delivery cost among those that satisfy the constraints.

use std::fmt;

/// What kind of alternative a version is.
#[derive(Debug, Clone, PartialEq)]
pub enum VersionKind {
    /// An exact replica.
    Replica,
    /// A compressed replica, carrying the name of its decompression codec.
    Compressed {
        /// Codec wire name ([`crate::codec::Codec::name`]).
        codec: String,
    },
    /// A summary retaining `fraction` of the information (e.g. a sample or
    /// an aggregate), in (0, 1].
    Summary {
        /// Information fraction retained.
        fraction: f64,
    },
    /// A lower-quality rendition (e.g. `videohalf`, `videosmall`).
    LowerQuality {
        /// Quality in (0, 1] relative to the original.
        quality: f64,
    },
}

impl VersionKind {
    /// Information quality of this kind: 1.0 for (compressed) replicas.
    #[must_use]
    pub fn quality(&self) -> f64 {
        match self {
            VersionKind::Replica | VersionKind::Compressed { .. } => 1.0,
            VersionKind::Summary { fraction } => *fraction,
            VersionKind::LowerQuality { quality } => *quality,
        }
    }
}

/// One version of a data component.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// Stable id within the component.
    pub id: u32,
    /// Where it lives (node name — `node1.Page1.html` style).
    pub location: String,
    /// What kind of alternative it is.
    pub kind: VersionKind,
    /// Size on the wire, in bytes.
    pub size_bytes: u64,
    /// Staleness: ticks behind the authoritative copy (0 = current).
    pub age: u64,
}

/// Constraints on version selection — the parameters of `BEST`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionConstraints {
    /// Maximum acceptable staleness (ticks); `None` = any.
    pub max_age: Option<u64>,
    /// Minimum acceptable quality in (0, 1].
    pub min_quality: f64,
    /// Current link bandwidth in bytes per tick (drives transfer cost).
    pub bandwidth: f64,
    /// CPU cost the receiver pays per byte to decode, by codec name; a
    /// codec missing from this table is assumed free.
    pub decode_cost_per_byte: Vec<(String, f64)>,
}

impl Default for SelectionConstraints {
    fn default() -> Self {
        Self { max_age: None, min_quality: 0.0, bandwidth: 1.0, decode_cost_per_byte: Vec::new() }
    }
}

impl SelectionConstraints {
    fn decode_cost(&self, kind: &VersionKind, size: u64) -> f64 {
        match kind {
            VersionKind::Compressed { codec } => self
                .decode_cost_per_byte
                .iter()
                .find(|(n, _)| n == codec)
                .map_or(0.0, |(_, c)| c * size as f64),
            _ => 0.0,
        }
    }

    /// Estimated delivery cost of a version: transfer + decode.
    #[must_use]
    pub fn delivery_cost(&self, v: &Version) -> f64 {
        v.size_bytes as f64 / self.bandwidth.max(f64::MIN_POSITIVE)
            + self.decode_cost(&v.kind, v.size_bytes)
    }
}

/// Selection errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// No version satisfies the constraints.
    NoneSatisfy,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no version satisfies the selection constraints")
    }
}

impl std::error::Error for SelectError {}

/// The list of alternative versions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionList {
    versions: Vec<Version>,
}

impl VersionList {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a version; replaces any existing version with the same id.
    pub fn add(&mut self, v: Version) {
        self.versions.retain(|e| e.id != v.id);
        self.versions.push(v);
    }

    /// Remove by id; returns whether it existed.
    pub fn remove(&mut self, id: u32) -> bool {
        let n = self.versions.len();
        self.versions.retain(|v| v.id != id);
        self.versions.len() != n
    }

    /// All versions.
    #[must_use]
    pub fn all(&self) -> &[Version] {
        &self.versions
    }

    /// Number of versions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// `BEST`: among versions meeting the constraints, the one with the
    /// lowest delivery cost; quality breaks ties (higher wins), then id.
    ///
    /// # Errors
    /// [`SelectError::NoneSatisfy`].
    pub fn best(&self, c: &SelectionConstraints) -> Result<&Version, SelectError> {
        self.versions
            .iter()
            .filter(|v| c.max_age.is_none_or(|a| v.age <= a))
            .filter(|v| v.kind.quality() >= c.min_quality)
            .min_by(|a, b| {
                c.delivery_cost(a)
                    .total_cmp(&c.delivery_cost(b))
                    .then(b.kind.quality().total_cmp(&a.kind.quality()))
                    .then(a.id.cmp(&b.id))
            })
            .ok_or(SelectError::NoneSatisfy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32, kind: VersionKind, size: u64, age: u64) -> Version {
        Version { id, location: format!("node{id}"), kind, size_bytes: size, age }
    }

    fn list() -> VersionList {
        let mut l = VersionList::new();
        l.add(v(1, VersionKind::Replica, 10_000, 0));
        l.add(v(2, VersionKind::Compressed { codec: "lz".into() }, 3_000, 0));
        l.add(v(3, VersionKind::Summary { fraction: 0.2 }, 500, 0));
        l.add(v(4, VersionKind::Replica, 10_000, 50));
        l
    }

    #[test]
    fn high_bandwidth_prefers_small_transfer() {
        // With decode modelled as free, the smallest acceptable version wins.
        let c = SelectionConstraints { min_quality: 1.0, bandwidth: 100.0, ..Default::default() };
        assert_eq!(list().best(&c).unwrap().id, 2, "compressed replica is smallest at q=1");
    }

    #[test]
    fn decode_cost_can_flip_the_choice() {
        // Expensive decode on a fast link: the raw replica wins.
        let c = SelectionConstraints {
            min_quality: 1.0,
            bandwidth: 10_000.0,
            decode_cost_per_byte: vec![("lz".into(), 1.0)],
            ..Default::default()
        };
        assert_eq!(list().best(&c).unwrap().id, 1);
        // Same decode cost on a slow link: compression pays for itself.
        let slow = SelectionConstraints {
            min_quality: 1.0,
            bandwidth: 1.0,
            decode_cost_per_byte: vec![("lz".into(), 1.0)],
            ..Default::default()
        };
        assert_eq!(list().best(&slow).unwrap().id, 2);
    }

    #[test]
    fn quality_floor_excludes_summaries() {
        let lax = SelectionConstraints { bandwidth: 1.0, ..Default::default() };
        assert_eq!(list().best(&lax).unwrap().id, 3, "summary is cheapest when allowed");
        let strict =
            SelectionConstraints { min_quality: 0.5, bandwidth: 1.0, ..Default::default() };
        assert_ne!(list().best(&strict).unwrap().id, 3);
    }

    #[test]
    fn staleness_bound_excludes_old_replicas() {
        let mut l = VersionList::new();
        l.add(v(4, VersionKind::Replica, 10_000, 50));
        let c = SelectionConstraints { max_age: Some(10), ..Default::default() };
        assert_eq!(l.best(&c), Err(SelectError::NoneSatisfy));
        let tolerant = SelectionConstraints { max_age: Some(100), ..Default::default() };
        assert_eq!(l.best(&tolerant).unwrap().id, 4);
    }

    #[test]
    fn empty_list_cannot_satisfy() {
        assert_eq!(
            VersionList::new().best(&SelectionConstraints::default()),
            Err(SelectError::NoneSatisfy)
        );
    }

    #[test]
    fn add_replaces_and_remove_removes() {
        let mut l = list();
        assert_eq!(l.len(), 4);
        l.add(v(2, VersionKind::Replica, 1, 0));
        assert_eq!(l.len(), 4);
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn kind_quality() {
        assert_eq!(VersionKind::Replica.quality(), 1.0);
        assert_eq!(VersionKind::Compressed { codec: "rle".into() }.quality(), 1.0);
        assert_eq!(VersionKind::Summary { fraction: 0.3 }.quality(), 0.3);
        assert_eq!(VersionKind::LowerQuality { quality: 0.5 }.quality(), 0.5);
    }
}
