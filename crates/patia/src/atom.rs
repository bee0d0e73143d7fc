//! Atoms: `Atom = <a_id, name, type, <constraint>>`, replicated over nodes.
//!
//! Atoms are no longer in-memory-only: [`Atom::encode`] gives each atom a
//! deterministic byte form, and `AtomStore::persist_into` writes the
//! whole store through the cycle-billed [`store::StorageEngine`] — one
//! record per atom, keyed by `a_id`, as one committed WAL transaction. A
//! crash below the adaptation journal keeps the atom records: WAL replay
//! brings them back (the tests decode them with `Atom::decode` and
//! `AtomStore::load_from`).

use datacomp::version::{SelectionConstraints, Version, VersionKind, VersionList};
use std::collections::BTreeMap;

/// An atom identifier (the paper's `a_id`: 123, 153, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

/// What kind of web object the atom is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomType {
    /// A whole HTML page.
    Html,
    /// A graphic.
    Graphic,
    /// A text frame.
    Text,
    /// A navigation button.
    Button,
    /// A video stream (`.ram` in the paper's Table 2).
    VideoStream,
    /// An audio stream (the Kendra lineage).
    AudioStream,
}

/// An atom: the smallest web object that cannot be subdivided.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Identifier.
    pub id: AtomId,
    /// Name (`Page1.html`, `videohalf.ram`, ...).
    pub name: String,
    /// Type.
    pub ty: AtomType,
    /// Base size in bytes (the full-quality version).
    pub size_bytes: u64,
    /// Constraint ids attached to this atom (bodies live in the server's
    /// constraint table, mirroring Table 2's separate metadata table).
    pub constraint_ids: Vec<u32>,
    /// Versions of this atom: replicas on nodes, lower-quality renditions.
    pub versions: VersionList,
}

impl Atom {
    /// A new atom with no versions yet.
    #[must_use]
    pub fn new(id: AtomId, name: &str, ty: AtomType, size_bytes: u64) -> Self {
        Self {
            id,
            name: name.to_owned(),
            ty,
            size_bytes,
            constraint_ids: Vec::new(),
            versions: VersionList::new(),
        }
    }

    /// Register a full-quality replica on `node`.
    pub fn add_replica(&mut self, version_id: u32, node: &str) {
        self.versions.add(Version {
            id: version_id,
            location: node.to_owned(),
            kind: VersionKind::Replica,
            size_bytes: self.size_bytes,
            age: 0,
        });
    }

    /// Register a lower-quality rendition (e.g. `videohalf` at 0.5 quality
    /// and half the bytes) on `node`.
    pub(crate) fn add_rendition(
        &mut self,
        version_id: u32,
        node: &str,
        quality: f64,
        size_bytes: u64,
    ) {
        self.versions.add(Version {
            id: version_id,
            location: node.to_owned(),
            kind: VersionKind::LowerQuality { quality },
            size_bytes,
            age: 0,
        });
    }

    /// Nodes holding any version of this atom.
    #[must_use]
    pub fn holders(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.versions.all().iter().map(|v| v.location.as_str()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `BEST` version under the given constraints.
    ///
    /// # Errors
    /// [`datacomp::version::SelectError`] when nothing satisfies.
    pub fn best_version(
        &self,
        c: &SelectionConstraints,
    ) -> Result<&Version, datacomp::version::SelectError> {
        self.versions.best(c)
    }

    /// Deterministic byte form for the storage engine (little-endian,
    /// length-prefixed strings). `Atom::decode` inverts it exactly.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.0.to_le_bytes());
        out.push(self.ty.code());
        out.extend_from_slice(&self.size_bytes.to_le_bytes());
        put_str(&mut out, &self.name);
        out.extend_from_slice(&(self.constraint_ids.len() as u16).to_le_bytes());
        for c in &self.constraint_ids {
            out.extend_from_slice(&c.to_le_bytes());
        }
        let versions = self.versions.all();
        out.extend_from_slice(&(versions.len() as u16).to_le_bytes());
        for v in versions {
            out.extend_from_slice(&v.id.to_le_bytes());
            match &v.kind {
                VersionKind::Replica => out.push(0),
                VersionKind::Compressed { codec } => {
                    out.push(1);
                    put_str(&mut out, codec);
                }
                VersionKind::Summary { fraction } => {
                    out.push(2);
                    out.extend_from_slice(&fraction.to_bits().to_le_bytes());
                }
                VersionKind::LowerQuality { quality } => {
                    out.push(3);
                    out.extend_from_slice(&quality.to_bits().to_le_bytes());
                }
            }
            put_str(&mut out, &v.location);
            out.extend_from_slice(&v.size_bytes.to_le_bytes());
            out.extend_from_slice(&v.age.to_le_bytes());
        }
        out
    }

    /// Decode an atom from its [`Atom::encode`] byte form.
    #[cfg(test)]
    fn decode(bytes: &[u8]) -> Option<Atom> {
        let mut c = Cursor { bytes, pos: 0 };
        let id = AtomId(c.u32()?);
        let ty = AtomType::from_code(c.u8()?)?;
        let size_bytes = c.u64()?;
        let name = c.str()?;
        let n_constraints = c.u16()? as usize;
        let mut constraint_ids = Vec::with_capacity(n_constraints);
        for _ in 0..n_constraints {
            constraint_ids.push(c.u32()?);
        }
        let n_versions = c.u16()? as usize;
        let mut versions = VersionList::new();
        for _ in 0..n_versions {
            let vid = c.u32()?;
            let kind = match c.u8()? {
                0 => VersionKind::Replica,
                1 => VersionKind::Compressed { codec: c.str()? },
                2 => VersionKind::Summary { fraction: f64::from_bits(c.u64()?) },
                3 => VersionKind::LowerQuality { quality: f64::from_bits(c.u64()?) },
                _ => return None,
            };
            let location = c.str()?;
            let vsize = c.u64()?;
            let age = c.u64()?;
            versions.add(Version { id: vid, location, kind, size_bytes: vsize, age });
        }
        if c.pos != bytes.len() {
            return None; // trailing garbage
        }
        Some(Atom { id, name, ty, size_bytes, constraint_ids, versions })
    }
}

impl AtomType {
    /// Wire code for [`Atom::encode`].
    #[must_use]
    pub(crate) fn code(self) -> u8 {
        match self {
            AtomType::Html => 0,
            AtomType::Graphic => 1,
            AtomType::Text => 2,
            AtomType::Button => 3,
            AtomType::VideoStream => 4,
            AtomType::AudioStream => 5,
        }
    }

    /// Inverse of [`AtomType::code`].
    #[cfg(test)]
    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => AtomType::Html,
            1 => AtomType::Graphic,
            2 => AtomType::Text,
            3 => AtomType::Button,
            4 => AtomType::VideoStream,
            5 => AtomType::AudioStream,
            _ => return None,
        })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader for `Atom::decode`.
#[cfg(test)]
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

#[cfg(test)]
impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

/// The distributed atom store.
#[derive(Debug, Clone, Default)]
pub struct AtomStore {
    atoms: BTreeMap<AtomId, Atom>,
}

impl AtomStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) an atom.
    pub fn insert(&mut self, atom: Atom) {
        self.atoms.insert(atom.id, atom);
    }

    /// Look up an atom.
    #[must_use]
    pub fn get(&self, id: AtomId) -> Option<&Atom> {
        self.atoms.get(&id)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: AtomId) -> Option<&mut Atom> {
        self.atoms.get_mut(&id)
    }

    /// All atom ids.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.atoms.keys().copied()
    }

    /// Number of atoms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Persist every atom into the storage engine as one committed WAL
    /// transaction (one record per atom, keyed by `a_id`). Page IO and
    /// the commit's log force are billed by the engine.
    ///
    /// # Errors
    /// [`store::StoreError`] — a crashed engine or an atom whose encoded
    /// form exceeds one page.
    pub(crate) fn persist_into(
        &self,
        engine: &mut store::StorageEngine,
    ) -> Result<store::TxnSummary, store::StoreError> {
        let ops: Vec<store::StoreOp> = self
            .atoms
            .values()
            .map(|a| store::StoreOp::Put { key: u64::from(a.id.0), value: a.encode() })
            .collect();
        engine.apply(&ops)
    }

    /// Load a store from the engine's current committed state (for
    /// example, right after [`store::StorageEngine::recover`]).
    ///
    /// # Errors
    /// The engine's error as a string, or a description of the first
    /// undecodable record.
    #[cfg(test)]
    fn load_from(engine: &mut store::StorageEngine) -> Result<Self, String> {
        let mut out = AtomStore::new();
        for (key, bytes) in engine.scan_all().map_err(|e| e.to_string())? {
            let atom =
                Atom::decode(&bytes).ok_or_else(|| format!("undecodable atom record {key}"))?;
            if u64::from(atom.id.0) != key {
                return Err(format!("atom {} stored under key {key}", atom.id.0));
            }
            out.insert(atom);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Atom {
        let mut a = Atom::new(AtomId(123), "Page1.html", AtomType::Html, 40_000);
        a.add_replica(1, "node1");
        a.add_replica(2, "node2");
        a
    }

    #[test]
    fn holders_deduplicate_and_sort() {
        let mut a = page();
        a.add_rendition(3, "node1", 0.5, 20_000);
        assert_eq!(a.holders(), vec!["node1", "node2"]);
    }

    #[test]
    fn best_version_prefers_small_rendition_when_quality_allows() {
        let mut video = Atom::new(AtomId(153), "video.ram", AtomType::VideoStream, 1_000_000);
        video.add_replica(1, "node1");
        video.add_rendition(2, "node2", 0.5, 500_000);
        video.add_rendition(3, "node3", 0.2, 150_000);
        let slow = SelectionConstraints { min_quality: 0.4, bandwidth: 10.0, ..Default::default() };
        assert_eq!(video.best_version(&slow).unwrap().id, 2, "videohalf");
        let strict =
            SelectionConstraints { min_quality: 1.0, bandwidth: 10.0, ..Default::default() };
        assert_eq!(video.best_version(&strict).unwrap().id, 1, "full only");
        let any = SelectionConstraints { min_quality: 0.0, bandwidth: 10.0, ..Default::default() };
        assert_eq!(video.best_version(&any).unwrap().id, 3, "videosmall");
    }

    #[test]
    fn codec_roundtrips_every_version_kind() {
        let mut a = Atom::new(AtomId(153), "video.ram", AtomType::VideoStream, 1_000_000);
        a.add_replica(1, "node1");
        a.add_rendition(2, "node2", 0.5, 500_000);
        a.versions.add(Version {
            id: 3,
            location: "laptop".to_owned(),
            kind: VersionKind::Compressed { codec: "rle".to_owned() },
            size_bytes: 9_000,
            age: 4,
        });
        a.versions.add(Version {
            id: 4,
            location: "sensor".to_owned(),
            kind: VersionKind::Summary { fraction: 0.1 },
            size_bytes: 100,
            age: 0,
        });
        a.constraint_ids = vec![450, 451];
        let decoded = Atom::decode(&a.encode()).unwrap();
        assert_eq!(decoded, a);
    }

    #[test]
    fn decode_rejects_malformed_bytes() {
        let good = page().encode();
        assert!(Atom::decode(&good[..good.len() - 1]).is_none(), "truncated");
        let mut trailing = good;
        trailing.push(0);
        assert!(Atom::decode(&trailing).is_none(), "trailing garbage");
        assert!(Atom::decode(&[]).is_none(), "empty");
    }

    #[test]
    fn persist_load_roundtrip_and_crash_recovery() {
        let mut s = AtomStore::new();
        s.insert(page());
        let mut video = Atom::new(AtomId(153), "video.ram", AtomType::VideoStream, 1_000_000);
        video.add_rendition(2, "node2", 0.5, 500_000);
        s.insert(video);

        let mut eng = store::StorageEngine::new(4);
        s.persist_into(&mut eng).unwrap();
        let loaded = AtomStore::load_from(&mut eng).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(AtomId(123)).unwrap(), s.get(AtomId(123)).unwrap());

        // Below-the-journal crash: the committed atoms come back via WAL
        // replay, not from anything volatile.
        eng.crash();
        eng.recover(&mut store::NoCrash).unwrap();
        let recovered = AtomStore::load_from(&mut eng).unwrap();
        assert_eq!(recovered.get(AtomId(153)).unwrap(), s.get(AtomId(153)).unwrap());
    }

    #[test]
    fn store_roundtrip() {
        let mut s = AtomStore::new();
        assert!(s.is_empty());
        s.insert(page());
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(AtomId(123)).unwrap().name, "Page1.html");
        s.get_mut(AtomId(123)).unwrap().constraint_ids.push(450);
        assert_eq!(s.get(AtomId(123)).unwrap().constraint_ids, vec![450]);
        assert!(s.get(AtomId(999)).is_none());
    }
}
