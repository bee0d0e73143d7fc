//! The State Manager: safe points and state archival.
//!
//! > "The original query plan included safe points which allow the system to
//! > stop streaming at a safe time and continue the other version's stream."
//! > — Scenario 2
//!
//! > "The adaptivity manager brings the query to a consistent state
//! > maintained by the State Manager component. The query then continues
//! > from this point." — Scenario 3
//!
//! A [`SafePoint`] is a named, consistent snapshot of a component's state
//! at a known progress mark. The State Manager archives safe points so a
//! switch (or a migration, or a device failure) can resume from the most
//! recent one rather than restarting.

use std::collections::BTreeMap;

/// A consistent snapshot of one component's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafePoint {
    /// The component it belongs to.
    pub component: String,
    /// Monotonic progress mark (e.g. stream offset, tuples consumed).
    pub progress: u64,
    /// Tick at which it was taken.
    pub taken_at: u64,
    /// The state bytes.
    pub state: Vec<u8>,
}

/// The State Manager: an archive of the latest safe point per component,
/// plus stopped-component state (for rollback and migration).
#[derive(Debug, Clone, Default)]
pub struct StateManager {
    safe_points: BTreeMap<String, SafePoint>,
    archived: BTreeMap<String, Vec<u8>>,
}

impl StateManager {
    /// An empty state manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a safe point. Older safe points for the same component are
    /// replaced only by *newer progress* — a late-arriving stale snapshot
    /// must not roll progress backwards.
    ///
    /// Returns whether the safe point was accepted.
    pub fn record(&mut self, sp: SafePoint) -> bool {
        match self.safe_points.get(&sp.component) {
            Some(prev) if prev.progress > sp.progress => false,
            _ => {
                self.safe_points.insert(sp.component.clone(), sp);
                true
            }
        }
    }

    /// The latest safe point for a component.
    #[must_use]
    pub fn latest(&self, component: &str) -> Option<&SafePoint> {
        self.safe_points.get(component)
    }

    /// Archive a stopped component's final state (for rollback/migration).
    pub(crate) fn archive(&mut self, component: &str, state: Vec<u8>) {
        self.archived.insert(component.to_owned(), state);
    }

    /// Take archived state back out (e.g. to restart the component on
    /// another node). Removes it from the archive.
    #[must_use]
    pub(crate) fn unarchive(&mut self, component: &str) -> Option<Vec<u8>> {
        self.archived.remove(component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(component: &str, progress: u64, bytes: &[u8]) -> SafePoint {
        SafePoint {
            component: component.to_owned(),
            progress,
            taken_at: progress,
            state: bytes.to_vec(),
        }
    }

    #[test]
    fn record_and_fetch_latest() {
        let mut sm = StateManager::new();
        assert!(sm.record(sp("join", 10, b"ten")));
        assert!(sm.record(sp("join", 20, b"twenty")));
        assert_eq!(sm.latest("join").unwrap().state, b"twenty");
        assert_eq!(sm.safe_points.len(), 1);
    }

    #[test]
    fn stale_safe_point_is_rejected() {
        let mut sm = StateManager::new();
        assert!(sm.record(sp("stream", 100, b"far")));
        assert!(!sm.record(sp("stream", 50, b"behind")), "must not roll back");
        assert_eq!(sm.latest("stream").unwrap().progress, 100);
    }

    #[test]
    fn equal_progress_overwrites() {
        let mut sm = StateManager::new();
        assert!(sm.record(sp("c", 5, b"a")));
        assert!(sm.record(sp("c", 5, b"b")), "same progress, fresher snapshot wins");
        assert_eq!(sm.latest("c").unwrap().state, b"b");
    }

    #[test]
    fn archive_roundtrip() {
        let mut sm = StateManager::new();
        sm.archive("agent", b"processing-state".to_vec());
        assert_eq!(sm.unarchive("agent"), Some(b"processing-state".to_vec()));
        assert_eq!(sm.unarchive("agent"), None, "archive is take-once");
    }
}
