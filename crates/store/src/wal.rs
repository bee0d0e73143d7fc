//! The write-ahead log: redo/undo records for the page store.
//!
//! The record taxonomy mirrors compkit's transaction log — `Begin →
//! per-op redo/undo records → Commit/Abort` — and the crash model is
//! *shared with it outright*: the engine consults the one boundary list,
//! [`Boundary`], through the same [`CrashHook`], so the [`PlannedCrash`]
//! at a [`CrashPoint`] that drives the adaptation-journal conformance
//! matrix drives the store's. The boundaries (the unbundling seam Lomet
//! et al. argue for — one transactional component, many data components;
//! the store is its one shard `s0`):
//!
//! | WAL boundary              | [`Boundary`]              |
//! |---------------------------|---------------------------|
//! | `Begin` appended          | `Begun`                   |
//! | op record `i` appended    | `Applied(s0, i)`          |
//! | about to append `Commit`  | `BeforeDecision`          |
//! | `Commit` appended         | `AfterDecision`           |
//! | rollback undid `n` ops    | `Undone(s0, n)`           |
//! | recovery skipped `n` ops  | `RecoveryUndone(s0, n)`   |
//!
//! Op records carry both images: `after` is the redo (applied for
//! committed transactions on replay), `before` is the undo (restored when
//! rolling an uncommitted transaction back). Both are *logical* — keyed by
//! atom key, not by page offset — which makes replay idempotent by
//! construction: "set key to after" and "restore key to before" land the
//! same state no matter how many times recovery runs.

pub use compkit::journal::{Boundary, CrashHook, CrashPoint, NoCrash, PlannedCrash};

/// One WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction opened.
    Begin {
        /// Transaction id (monotonic per log).
        txn: u64,
    },
    /// A key was written. `before` is `None` for a fresh insert.
    Put {
        /// Transaction id.
        txn: u64,
        /// The record key.
        key: u64,
        /// Undo image: the value this write replaced.
        before: Option<Vec<u8>>,
        /// Redo image: the value written.
        after: Vec<u8>,
    },
    /// A key was deleted.
    Delete {
        /// Transaction id.
        txn: u64,
        /// The record key.
        key: u64,
        /// Undo image: the value deleted.
        before: Vec<u8>,
    },
    /// The transaction committed (the log was forced here).
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// The transaction rolled back cleanly before the crash model was
    /// ever involved.
    Abort {
        /// Transaction id.
        txn: u64,
    },
}

impl WalRecord {
    /// The transaction this record belongs to.
    #[must_use]
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::Put { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::Commit { txn }
            | WalRecord::Abort { txn } => *txn,
        }
    }

    /// Short tag for rendered matrices and traces.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            WalRecord::Begin { .. } => "begin",
            WalRecord::Put { .. } => "put",
            WalRecord::Delete { .. } => "delete",
            WalRecord::Commit { .. } => "commit",
            WalRecord::Abort { .. } => "abort",
        }
    }
}

/// The append-only write-ahead log. Unlike the adaptation journal it is
/// *not* truncated after recovery: the log is the store's only durable
/// history (pages are rebuilt from it), so replay length is a meaningful,
/// golden-gated quantity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wal {
    records: Vec<WalRecord>,
    next_txn: u64,
    appended_total: u64,
}

impl Wal {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a transaction: append its begin record, return its id.
    pub fn begin(&mut self) -> u64 {
        let txn = self.next_txn;
        self.next_txn += 1;
        self.append(WalRecord::Begin { txn });
        txn
    }

    /// Append one record.
    pub fn append(&mut self, r: WalRecord) {
        self.records.push(r);
        self.appended_total += 1;
    }

    /// All records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Current log length (also the LSN the next record will get).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Transactions with a commit record, in first-commit order.
    #[must_use]
    pub(crate) fn committed_txns(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_allocates_monotonic_txns() {
        let mut w = Wal::new();
        assert_eq!(w.begin(), 0);
        assert_eq!(w.begin(), 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.records()[0], WalRecord::Begin { txn: 0 });
    }

    #[test]
    fn committed_txns_scans_commit_records() {
        let mut w = Wal::new();
        let a = w.begin();
        w.append(WalRecord::Put { txn: a, key: 1, before: None, after: vec![1] });
        w.append(WalRecord::Commit { txn: a });
        let b = w.begin();
        w.append(WalRecord::Delete { txn: b, key: 1, before: vec![1] });
        w.append(WalRecord::Abort { txn: b });
        assert_eq!(w.committed_txns(), vec![a]);
    }

    #[test]
    fn record_tags_cover_the_taxonomy() {
        let r = WalRecord::Put { txn: 0, key: 9, before: Some(vec![1]), after: vec![2] };
        assert_eq!(r.tag(), "put");
        assert_eq!(r.txn(), 0);
        assert_eq!(WalRecord::Commit { txn: 3 }.tag(), "commit");
    }
}
