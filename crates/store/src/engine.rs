//! The storage engine façade: slotted pages behind a buffer pool, a
//! B-tree index over keys, and a write-ahead log that is the store's only
//! durable history.
//!
//! # Durability model
//!
//! * The buffer pool's frames are **volatile**: a crash drops them, dirty
//!   pages and all. Stable storage behind the pool serves *capacity*
//!   (evicted pages can be faulted back), not durability.
//! * The WAL is **durable** and append-only. Commit forces the log
//!   ([`machine::cost::Primitive::LogForce`]); nothing else needs forcing
//!   — a steal/no-force pool with logical redo/undo images makes replay
//!   idempotent without page-LSN bookkeeping.
//! * Recovery replays the whole log: committed transactions' ops are
//!   redone in log order, uncommitted ones are discarded (each discard is
//!   an undo in the stats and a
//!   [`CrashSite::AfterRecoveryUndo`] crash site), and the surviving
//!   state is rebuilt into fresh pages. The replay length is exported as
//!   `store.wal.replay_len` and golden-gated by the crash matrix.
//!
//! # Billing
//!
//! With an [`obs`] hub armed, every pool miss and dirty writeback charges
//! [`machine::cost::Primitive::PageIo`] (accumulated in
//! `store.page.io_cycles`), every commit charges a log force, and
//! `store.pool.hit` / `store.pool.miss` count the pool's behaviour so the
//! bench snapshot can pin the hit rate. Disarmed, the engine costs one
//! branch per operation, like every other component.

use crate::btree::BTree;
use crate::page::{PageId, RecordId, MAX_RECORD};
use crate::pool::{Access, BufferPool, PolicyKind, PoolStats};
use crate::wal::{CrashHook, CrashSite, NoCrash, Wal, WalRecord};
use obs::{ObsHandle, Primitive};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Bytes of key prefix in every record body.
const KEY_BYTES: usize = 8;

/// One logical store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Insert or overwrite `key`.
    Put {
        /// The record key.
        key: u64,
        /// The value written.
        value: Vec<u8>,
    },
    /// Remove `key` (a no-op if absent).
    Delete {
        /// The record key.
        key: u64,
    },
}

impl StoreOp {
    /// The key this op touches.
    #[must_use]
    pub fn key(&self) -> u64 {
        match self {
            StoreOp::Put { key, .. } | StoreOp::Delete { key } => *key,
        }
    }
}

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The value cannot fit one slotted page.
    RecordTooLarge {
        /// The offending key.
        key: u64,
        /// The value length.
        len: usize,
    },
    /// The engine is down (crashed); call [`StorageEngine::recover`].
    Down,
    /// A scripted crash fired; the engine is now down.
    Crashed,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::RecordTooLarge { key, len } => {
                write!(f, "record for key {key} is {len} bytes; max is {}", MAX_RECORD - KEY_BYTES)
            }
            StoreError::Down => f.write_str("engine is down; recover() first"),
            StoreError::Crashed => f.write_str("scripted crash fired"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What a committed transaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSummary {
    /// Transaction id.
    pub txn: u64,
    /// Ops applied and journalled.
    pub applied: usize,
}

/// What a recovery replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// WAL records scanned (the golden-gated replay length).
    pub replayed: usize,
    /// Committed ops re-applied.
    pub redone: usize,
    /// Uncommitted ops discarded.
    pub undone: usize,
    /// Pages materialised for the rebuilt state.
    pub pages_rebuilt: usize,
}

/// The storage engine.
#[derive(Debug, Clone)]
pub struct StorageEngine {
    pool: BufferPool,
    wal: Wal,
    index: BTree,
    next_page: u32,
    fill: Option<PageId>,
    down: bool,
    obs: Option<ObsHandle>,
    last_recovery: Option<RecoveryStats>,
}

impl StorageEngine {
    /// An engine whose pool has `pool_capacity` frames.
    #[must_use]
    pub fn new(pool_capacity: usize) -> Self {
        Self {
            pool: BufferPool::new(pool_capacity),
            wal: Wal::new(),
            index: BTree::new(),
            next_page: 0,
            fill: None,
            down: false,
            obs: None,
            last_recovery: None,
        }
    }

    /// [`StorageEngine::new`] under a named pool policy. Kept only
    /// because the wall-clock ledger under `benchmark/` calls it;
    /// [`PolicyKind`] has the one `Clock` variant.
    #[must_use]
    pub fn with_policy(pool_capacity: usize, _kind: PolicyKind) -> Self {
        Self::new(pool_capacity)
    }

    /// Arm observability: page IO, log forces and pool behaviour are
    /// billed and counted from here on.
    pub fn arm_obs(&mut self, handle: ObsHandle) {
        self.obs = Some(handle);
    }

    /// Drop the observability handle, so the hub it points at can be
    /// unwrapped while the engine lives on for introspection.
    pub fn disarm_obs(&mut self) {
        self.obs = None;
    }

    /// The buffer pool, read-only — the frame table behind `sys.pool`.
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Live record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether the engine is down and needs [`Self::recover`].
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The write-ahead log (read-only).
    #[must_use]
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Buffer-pool counters.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Stats of the most recent recovery, if any.
    #[must_use]
    pub fn last_recovery(&self) -> Option<RecoveryStats> {
        self.last_recovery
    }

    fn bill(&mut self, acc: Access) {
        let Some(h) = &self.obs else { return };
        let mut o = h.borrow_mut();
        if acc.hit {
            o.metrics.counter_add("store.pool.hit", 1);
            o.charge(Primitive::Load);
        } else if acc.read_io {
            o.metrics.counter_add("store.pool.miss", 1);
        }
        if acc.wrote_back {
            o.metrics.counter_add("store.pool.writeback", 1);
        }
        let ios = acc.ios();
        if ios > 0 {
            let spent = o.charge(Primitive::PageIo(ios));
            o.metrics.counter_add("store.page.io_cycles", spent);
        }
    }

    fn bill_log_force(&mut self) {
        if let Some(h) = &self.obs {
            let mut o = h.borrow_mut();
            o.charge(Primitive::LogForce);
            o.metrics.counter_add("store.wal.force", 1);
        }
    }

    fn bill_index_descent(&mut self) {
        if let Some(h) = &self.obs {
            h.borrow_mut().charge_n(Primitive::Alu, self.index.depth() as u64);
        }
    }

    /// Physically read a key's value. Bills the pool access.
    fn read(&mut self, key: u64) -> Option<(Vec<u8>, bool)> {
        self.bill_index_descent();
        let rid = self.index.get(key)?;
        let (page, acc) = self.pool.fetch(rid.page).expect("index points at live pages");
        let body = page.get(rid.slot).expect("index points at live slots");
        let value = body[KEY_BYTES..].to_vec();
        self.bill(acc);
        Some((value, acc.hit))
    }

    /// Physically write `key = value` (no WAL involvement).
    fn phys_put(&mut self, key: u64, value: &[u8]) {
        self.phys_delete(key);
        let mut body = Vec::with_capacity(KEY_BYTES + value.len());
        body.extend_from_slice(&key.to_le_bytes());
        body.extend_from_slice(value);
        let lsn = self.wal.len() as u64;
        // Try the current fill page; fall back to a fresh one.
        let pid = match self.fill {
            Some(pid) => {
                let (page, acc) = self.pool.fetch(pid).expect("fill page exists");
                let fits = page.fits(body.len());
                self.bill(acc);
                if fits {
                    pid
                } else {
                    self.fresh_page()
                }
            }
            None => self.fresh_page(),
        };
        let (page, acc) = self.pool.fetch_mut(pid).expect("fill page exists");
        let slot = page.insert(&body).expect("fill page was checked for space");
        page.set_lsn(lsn);
        self.bill(acc);
        self.fill = Some(pid);
        self.index.insert(key, RecordId { page: pid, slot });
    }

    fn fresh_page(&mut self) -> PageId {
        let pid = PageId(self.next_page);
        self.next_page += 1;
        let acc = self.pool.create(pid);
        self.bill(acc);
        pid
    }

    /// Physically remove `key` (no WAL involvement).
    fn phys_delete(&mut self, key: u64) -> bool {
        let Some(rid) = self.index.remove(key) else { return false };
        let (page, acc) = self.pool.fetch_mut(rid.page).expect("index points at live pages");
        page.delete(rid.slot);
        self.bill(acc);
        true
    }

    /// Read a value.
    ///
    /// # Errors
    /// [`StoreError::Down`] when the engine has crashed and not recovered.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.get_traced(key)?.map(|(v, _)| v))
    }

    /// Read a value, also reporting whether the pool hit.
    ///
    /// # Errors
    /// [`StoreError::Down`] when the engine has crashed and not recovered.
    pub fn get_traced(&mut self, key: u64) -> Result<Option<(Vec<u8>, bool)>, StoreError> {
        if self.down {
            return Err(StoreError::Down);
        }
        Ok(self.read(key))
    }

    /// All `(key, value)` pairs in key order.
    ///
    /// # Errors
    /// [`StoreError::Down`] when the engine has crashed and not recovered.
    pub fn scan_all(&mut self) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.scan_range(0, u64::MAX)
    }

    /// `(key, value)` pairs with `lo <= key <= hi`, in key order, read
    /// through the buffer pool page by page.
    ///
    /// # Errors
    /// [`StoreError::Down`] when the engine has crashed and not recovered.
    pub fn scan_range(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        if self.down {
            return Err(StoreError::Down);
        }
        let rids = self.index.range(lo, hi);
        let mut out = Vec::with_capacity(rids.len());
        for (key, rid) in rids {
            let (page, acc) = self.pool.fetch(rid.page).expect("index points at live pages");
            let body = page.get(rid.slot).expect("index points at live slots");
            out.push((key, body[KEY_BYTES..].to_vec()));
            self.bill(acc);
        }
        Ok(out)
    }

    /// Keys in key order (no page reads — index only).
    #[must_use]
    pub fn keys(&self) -> Vec<u64> {
        self.index.iter_all().into_iter().map(|(k, _)| k).collect()
    }

    /// Keys with `lo <= key <= hi`, in key order (index only — record
    /// pages are left untouched, so scans can plan before paying IO).
    ///
    /// # Errors
    /// [`StoreError::Down`] when the engine has crashed and not recovered.
    pub fn scan_range_keys(&self, lo: u64, hi: u64) -> Result<Vec<u64>, StoreError> {
        if self.down {
            return Err(StoreError::Down);
        }
        Ok(self.index.range(lo, hi).into_iter().map(|(k, _)| k).collect())
    }

    /// A deterministic digest of the full logical state.
    ///
    /// # Errors
    /// [`StoreError::Down`] when the engine has crashed and not recovered.
    pub fn state_digest(&mut self) -> Result<u64, StoreError> {
        let mut bytes = Vec::new();
        for (k, v) in self.scan_all()? {
            bytes.extend_from_slice(&k.to_le_bytes());
            bytes.extend_from_slice(&(v.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&v);
        }
        Ok(obs::fnv1a(&bytes))
    }

    fn validate(&self, ops: &[StoreOp]) -> Result<(), StoreError> {
        for op in ops {
            if let StoreOp::Put { key, value } = op {
                if value.len() + KEY_BYTES > MAX_RECORD {
                    return Err(StoreError::RecordTooLarge { key: *key, len: value.len() });
                }
            }
        }
        Ok(())
    }

    /// Apply `ops` as one committed transaction.
    ///
    /// # Errors
    /// [`StoreError::Down`] / [`StoreError::RecordTooLarge`]; never
    /// `Crashed` (the hook is [`NoCrash`]).
    pub fn apply(&mut self, ops: &[StoreOp]) -> Result<TxnSummary, StoreError> {
        self.apply_crashable(ops, &mut NoCrash)
    }

    /// Apply `ops` as one transaction under a crash hook. Each WAL record
    /// boundary is a [`CrashSite`]; if the hook fires, the engine crashes
    /// (volatile state gone) and `Err(Crashed)` is returned.
    ///
    /// # Errors
    /// [`StoreError::Crashed`] when the hook fires, plus the [`Self::apply`]
    /// errors.
    pub fn apply_crashable(
        &mut self,
        ops: &[StoreOp],
        hook: &mut dyn CrashHook,
    ) -> Result<TxnSummary, StoreError> {
        if self.down {
            return Err(StoreError::Down);
        }
        self.validate(ops)?;
        let txn = self.wal.begin();
        if hook.crash(&CrashSite::Intent) {
            self.crash();
            return Err(StoreError::Crashed);
        }
        for (i, op) in ops.iter().enumerate() {
            self.apply_one(txn, op);
            if hook.crash(&CrashSite::AfterStep { index: i }) {
                self.crash();
                return Err(StoreError::Crashed);
            }
        }
        if hook.crash(&CrashSite::BeforeCommit) {
            self.crash();
            return Err(StoreError::Crashed);
        }
        self.wal.append(WalRecord::Commit { txn });
        self.bill_log_force();
        if hook.crash(&CrashSite::AfterCommit) {
            self.crash();
            return Err(StoreError::Crashed);
        }
        Ok(TxnSummary { txn, applied: ops.len() })
    }

    /// Apply `ops`, then roll the transaction back in-place (before
    /// images restored in reverse order) and append its abort record.
    /// Each undo is a [`CrashSite::AfterUndo`] site.
    ///
    /// # Errors
    /// [`StoreError::Crashed`] when the hook fires, plus the [`Self::apply`]
    /// errors.
    pub fn apply_then_abort_crashable(
        &mut self,
        ops: &[StoreOp],
        hook: &mut dyn CrashHook,
    ) -> Result<TxnSummary, StoreError> {
        if self.down {
            return Err(StoreError::Down);
        }
        self.validate(ops)?;
        let txn = self.wal.begin();
        if hook.crash(&CrashSite::Intent) {
            self.crash();
            return Err(StoreError::Crashed);
        }
        let mut undo: Vec<(u64, Option<Vec<u8>>)> = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            undo.push((op.key(), self.apply_one(txn, op)));
            if hook.crash(&CrashSite::AfterStep { index: i }) {
                self.crash();
                return Err(StoreError::Crashed);
            }
        }
        for (undos, (key, before)) in undo.into_iter().rev().enumerate() {
            match before {
                Some(v) => self.phys_put(key, &v),
                None => {
                    self.phys_delete(key);
                }
            }
            if hook.crash(&CrashSite::AfterUndo { undos: undos + 1 }) {
                self.crash();
                return Err(StoreError::Crashed);
            }
        }
        self.wal.append(WalRecord::Abort { txn });
        Ok(TxnSummary { txn, applied: ops.len() })
    }

    /// Journal one op (before image captured first — write-ahead), then
    /// apply it physically. Returns the before image.
    fn apply_one(&mut self, txn: u64, op: &StoreOp) -> Option<Vec<u8>> {
        match op {
            StoreOp::Put { key, value } => {
                let before = self.read(*key).map(|(v, _)| v);
                self.wal.append(WalRecord::Put {
                    txn,
                    key: *key,
                    before: before.clone(),
                    after: value.clone(),
                });
                self.phys_put(*key, value);
                before
            }
            StoreOp::Delete { key } => {
                let before = self.read(*key).map(|(v, _)| v);
                if let Some(b) = &before {
                    self.wal.append(WalRecord::Delete { txn, key: *key, before: b.clone() });
                    self.phys_delete(*key);
                }
                before
            }
        }
    }

    /// The crash: every volatile structure — pool frames, index, fill
    /// pointer — vanishes. The WAL and stable pages survive, and the
    /// engine refuses service until [`Self::recover`].
    pub fn crash(&mut self) {
        self.pool.drop_volatile();
        self.index = BTree::new();
        self.fill = None;
        self.down = true;
        if let Some(h) = &self.obs {
            h.borrow_mut().metrics.counter_add("store.crash", 1);
        }
    }

    /// Replay the WAL and rebuild pages: committed transactions roll
    /// forward, uncommitted ones are discarded. Idempotent — replaying an
    /// already-recovered (or never-crashed) engine lands the same state.
    ///
    /// # Errors
    /// [`StoreError::Crashed`] when the hook kills recovery itself (at an
    /// [`CrashSite::AfterRecoveryUndo`] site); the engine stays down and
    /// a further recovery finishes the job.
    pub fn recover(&mut self, hook: &mut dyn CrashHook) -> Result<RecoveryStats, StoreError> {
        let committed: BTreeSet<u64> = self.wal.committed_txns().into_iter().collect();
        let mut stats = RecoveryStats::default();
        let mut state: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for rec in self.wal.records().to_vec() {
            stats.replayed += 1;
            if let Some(h) = &self.obs {
                h.borrow_mut().charge(Primitive::Load);
            }
            match rec {
                WalRecord::Put { txn, key, after, .. } if committed.contains(&txn) => {
                    state.insert(key, after);
                    stats.redone += 1;
                }
                WalRecord::Delete { txn, key, .. } if committed.contains(&txn) => {
                    state.remove(&key);
                    stats.redone += 1;
                }
                WalRecord::Put { .. } | WalRecord::Delete { .. } => {
                    stats.undone += 1;
                    if hook.crash(&CrashSite::AfterRecoveryUndo { undos: stats.undone }) {
                        self.crash();
                        return Err(StoreError::Crashed);
                    }
                }
                WalRecord::Begin { .. } | WalRecord::Commit { .. } | WalRecord::Abort { .. } => {}
            }
        }
        // Rebuild pages and index from the surviving state.
        self.pool = BufferPool::new(self.pool.capacity());
        self.index = BTree::new();
        self.next_page = 0;
        self.fill = None;
        self.down = false;
        for (key, value) in state {
            self.phys_put(key, &value);
        }
        stats.pages_rebuilt = self.next_page as usize;
        self.last_recovery = Some(stats);
        if let Some(h) = &self.obs {
            let mut o = h.borrow_mut();
            o.metrics.counter_add("store.wal.replay_len", stats.replayed as u64);
            o.metrics.counter_add("store.recovery", 1);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{CrashPoint, PlannedCrash};

    fn put(key: u64, v: &[u8]) -> StoreOp {
        StoreOp::Put { key, value: v.to_vec() }
    }

    fn del(key: u64) -> StoreOp {
        StoreOp::Delete { key }
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut e = StorageEngine::new(4);
        e.apply(&[put(1, b"one"), put(2, b"two")]).unwrap();
        assert_eq!(e.get(1).unwrap().unwrap(), b"one");
        e.apply(&[del(1), put(2, b"TWO")]).unwrap();
        assert_eq!(e.get(1).unwrap(), None);
        assert_eq!(e.get(2).unwrap().unwrap(), b"TWO");
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn committed_state_survives_a_crash() {
        let mut e = StorageEngine::new(2);
        e.apply(&[put(1, b"keep"), put(2, b"also")]).unwrap();
        e.crash();
        assert_eq!(e.get(1).unwrap_err(), StoreError::Down);
        let stats = e.recover(&mut NoCrash).unwrap();
        assert_eq!(stats.redone, 2);
        assert_eq!(stats.undone, 0);
        assert_eq!(e.scan_all().unwrap().len(), 2);
        assert_eq!(e.get(1).unwrap().unwrap(), b"keep");
    }

    #[test]
    fn uncommitted_ops_roll_back_on_recovery() {
        let mut e = StorageEngine::new(2);
        e.apply(&[put(1, b"base")]).unwrap();
        let mut hook = PlannedCrash::new(CrashPoint::BeforeCommit);
        let err = e.apply_crashable(&[put(1, b"doomed"), put(9, b"gone")], &mut hook);
        assert_eq!(err.unwrap_err(), StoreError::Crashed);
        e.recover(&mut NoCrash).unwrap();
        assert_eq!(e.get(1).unwrap().unwrap(), b"base", "the overwrite rolled back");
        assert_eq!(e.get(9).unwrap(), None, "the insert rolled back");
    }

    #[test]
    fn commit_record_makes_the_crash_survivable() {
        let mut e = StorageEngine::new(2);
        let mut hook = PlannedCrash::new(CrashPoint::AfterCommit);
        let err = e.apply_crashable(&[put(5, b"durable")], &mut hook);
        assert_eq!(err.unwrap_err(), StoreError::Crashed);
        e.recover(&mut NoCrash).unwrap();
        assert_eq!(e.get(5).unwrap().unwrap(), b"durable");
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut e = StorageEngine::new(2);
        e.apply(&[put(1, b"a"), put(2, b"b")]).unwrap();
        let mut hook = PlannedCrash::new(CrashPoint::MidPlan { after_steps: 1 });
        let _ = e.apply_crashable(&[put(3, b"c"), del(1)], &mut hook);
        let first = e.recover(&mut NoCrash).unwrap();
        let d1 = e.state_digest().unwrap();
        let second = e.recover(&mut NoCrash).unwrap();
        assert_eq!(first.replayed, second.replayed);
        assert_eq!(e.state_digest().unwrap(), d1);
    }

    #[test]
    fn clean_abort_restores_before_images() {
        let mut e = StorageEngine::new(2);
        e.apply(&[put(1, b"base")]).unwrap();
        e.apply_then_abort_crashable(&[put(1, b"temp"), put(2, b"temp2")], &mut NoCrash).unwrap();
        assert_eq!(e.get(1).unwrap().unwrap(), b"base");
        assert_eq!(e.get(2).unwrap(), None);
        assert_eq!(e.wal().records().last().unwrap().tag(), "abort");
    }

    #[test]
    fn crash_mid_rollback_still_recovers_clean() {
        let mut e = StorageEngine::new(2);
        e.apply(&[put(1, b"base")]).unwrap();
        let mut hook = PlannedCrash::new(CrashPoint::MidRollback { after_undos: 1 });
        let err = e.apply_then_abort_crashable(&[put(1, b"x"), put(2, b"y")], &mut hook);
        assert_eq!(err.unwrap_err(), StoreError::Crashed);
        e.recover(&mut NoCrash).unwrap();
        assert_eq!(e.get(1).unwrap().unwrap(), b"base");
        assert_eq!(e.get(2).unwrap(), None);
    }

    #[test]
    fn crash_during_recovery_is_reentrant() {
        let mut e = StorageEngine::new(2);
        e.apply(&[put(1, b"keep")]).unwrap();
        let mut hook = PlannedCrash::new(CrashPoint::BeforeCommit);
        let _ = e.apply_crashable(&[put(2, b"doomed")], &mut hook);
        let mut rhook = PlannedCrash::new(CrashPoint::DuringRecovery { after_undos: 1 });
        assert_eq!(e.recover(&mut rhook).unwrap_err(), StoreError::Crashed);
        assert!(e.is_down());
        e.recover(&mut NoCrash).unwrap();
        assert_eq!(e.get(1).unwrap().unwrap(), b"keep");
        assert_eq!(e.get(2).unwrap(), None);
    }

    #[test]
    fn oversized_records_are_rejected_before_journalling() {
        let mut e = StorageEngine::new(2);
        let wal_before = e.wal().len();
        let err = e.apply(&[put(1, &vec![0u8; MAX_RECORD])]);
        assert!(matches!(err.unwrap_err(), StoreError::RecordTooLarge { key: 1, .. }));
        assert_eq!(e.wal().len(), wal_before, "nothing was journalled");
    }

    #[test]
    fn deleting_an_absent_key_journals_nothing() {
        let mut e = StorageEngine::new(2);
        e.apply(&[del(42)]).unwrap();
        assert_eq!(
            e.wal().records().iter().filter(|r| r.tag() == "delete").count(),
            0,
            "no before image, no record"
        );
    }

    #[test]
    fn pool_pressure_spills_and_refetches() {
        // 1-frame pool, values big enough that each page holds two
        // records: every other access faults.
        let mut e = StorageEngine::new(1);
        let big = vec![7u8; 1500];
        e.apply(&[
            StoreOp::Put { key: 1, value: big.clone() },
            StoreOp::Put { key: 2, value: big.clone() },
            StoreOp::Put { key: 3, value: big.clone() },
            StoreOp::Put { key: 4, value: big.clone() },
        ])
        .unwrap();
        for k in 1..=4 {
            assert_eq!(e.get(k).unwrap().unwrap(), big);
        }
        let stats = e.pool_stats();
        assert!(stats.misses > 0, "a 1-frame pool must fault: {stats:?}");
        assert!(stats.writebacks > 0, "dirty victims must be written back");
    }

    #[test]
    fn scan_is_key_ordered() {
        let mut e = StorageEngine::new(4);
        e.apply(&[put(30, b"c"), put(10, b"a"), put(20, b"b")]).unwrap();
        let all = e.scan_all().unwrap();
        assert_eq!(all.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![10, 20, 30]);
        let mid = e.scan_range(10, 20).unwrap();
        assert_eq!(mid.len(), 2);
    }
}
