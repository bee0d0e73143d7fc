//! The buffer pool: a fixed set of frames between the record layer and
//! stable storage, under clock (second-chance) replacement.
//!
//! Every fetch that misses costs a [`machine::cost::Primitive::PageIo`]
//! (billed by the engine, which also counts `store.pool.hit` /
//! `store.pool.miss` metrics); evicting a dirty victim costs a second page
//! IO for the writeback. The pool itself stays billing-free: it reports
//! what happened in an [`Access`] and the caller charges the machine.
//!
//! Each frame carries one reference bit, set on every access. A victim
//! search sweeps the hand round the frames, clearing set bits and taking
//! the first frame whose bit is already clear.

use crate::page::{Page, PageId};
use std::collections::BTreeMap;
use std::fmt;

/// The replacement policy a pool runs. Clock is the only one; the type
/// survives because the wall-clock ledger under `benchmark/` names it
/// through [`BufferPool::with_policy`] and
/// [`crate::StorageEngine::with_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Clock / second-chance: one reference bit per frame, a sweeping hand.
    Clock,
}

/// What one pool operation did — the caller bills page IO from this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Access {
    /// The page was already resident.
    pub hit: bool,
    /// A page was read in from stable storage.
    pub read_io: bool,
    /// A dirty victim was written back to stable storage.
    pub wrote_back: bool,
}

impl Access {
    /// Page transfers this access performed.
    #[must_use]
    pub fn ios(&self) -> u32 {
        u32::from(self.read_io) + u32::from(self.wrote_back)
    }
}

/// Cumulative pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that had to read stable storage.
    pub misses: u64,
    /// Fresh pages materialised in a frame (no read IO).
    pub creates: u64,
    /// Dirty victims written back on eviction or flush.
    pub writebacks: u64,
}

impl PoolStats {
    /// Hit rate in whole percent (100 when there were no fetches).
    #[must_use]
    pub fn hit_pct(&self) -> u64 {
        let total = self.hits + self.misses;
        (self.hits * 100).checked_div(total).unwrap_or(100)
    }
}

/// One frame of the pool as the introspection layer sees it — the row
/// source behind `sys.pool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Frame index, `0..capacity`.
    pub frame: usize,
    /// The resident page, or `None` for an empty frame.
    pub page: Option<PageId>,
    /// Whether the frame holds unwritten changes.
    pub dirty: bool,
    /// The clock's reference bit.
    pub referenced: bool,
}

/// Pool errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The page exists neither in a frame nor on stable storage.
    UnknownPage(PageId),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::UnknownPage(p) => write!(f, "unknown page {p}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// The buffer pool plus the stable storage behind it.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Option<Page>>,
    dirty: Vec<bool>,
    /// The clock's reference bit per frame.
    referenced: Vec<bool>,
    /// The next frame the clock's victim search inspects.
    hand: usize,
    resident: BTreeMap<PageId, usize>,
    disk: BTreeMap<PageId, Page>,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool of `capacity` frames.
    ///
    /// # Panics
    /// When `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-frame pool cannot serve any page");
        Self {
            capacity,
            frames: vec![None; capacity],
            dirty: vec![false; capacity],
            referenced: vec![false; capacity],
            hand: 0,
            resident: BTreeMap::new(),
            disk: BTreeMap::new(),
            stats: PoolStats::default(),
        }
    }

    /// [`BufferPool::new`] under a named policy. Kept only because the
    /// wall-clock ledger under `benchmark/` calls it; [`PolicyKind`] has
    /// the one `Clock` variant.
    ///
    /// # Panics
    /// When `capacity` is zero.
    #[must_use]
    pub fn with_policy(capacity: usize, _kind: PolicyKind) -> Self {
        Self::new(capacity)
    }

    /// Frame count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Whether the page exists anywhere (frame or stable storage).
    #[must_use]
    pub fn contains(&self, pid: PageId) -> bool {
        self.resident.contains_key(&pid) || self.disk.contains_key(&pid)
    }

    /// Pages on stable storage (flushed at least once).
    #[must_use]
    pub fn pages_on_disk(&self) -> usize {
        self.disk.len()
    }

    /// Resident pages (occupied frames).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.resident.len()
    }

    /// Freeze the frame table: one [`FrameInfo`] per frame in frame-index
    /// order — the deterministic row source for `sys.pool`.
    #[must_use]
    pub fn frame_table(&self) -> Vec<FrameInfo> {
        (0..self.capacity)
            .map(|f| FrameInfo {
                frame: f,
                page: self.frames[f].as_ref().map(Page::id),
                dirty: self.dirty[f],
                referenced: self.referenced[f],
            })
            .collect()
    }

    /// The clock sweep: pass over referenced frames, clearing their bits,
    /// and take the first unreferenced one. Only called when every frame
    /// is occupied.
    fn victim(&mut self) -> usize {
        loop {
            let f = self.hand;
            self.hand = (self.hand + 1) % self.capacity;
            if !std::mem::replace(&mut self.referenced[f], false) {
                return f;
            }
        }
    }

    /// Find a frame for a new occupant, evicting if the pool is full.
    fn frame_for(&mut self) -> (usize, bool) {
        if let Some(f) = self.frames.iter().position(Option::is_none) {
            return (f, false);
        }
        let f = self.victim();
        let old = self.frames[f].take().expect("victim frames are occupied");
        self.resident.remove(&old.id());
        let mut wrote_back = false;
        if self.dirty[f] {
            self.stats.writebacks += 1;
            self.disk.insert(old.id(), old);
            wrote_back = true;
        }
        self.dirty[f] = false;
        (f, wrote_back)
    }

    /// Materialise a brand-new page in a frame (dirty, no read IO).
    pub fn create(&mut self, pid: PageId) -> Access {
        debug_assert!(!self.contains(pid), "create of an existing page");
        let (f, wrote_back) = self.frame_for();
        self.frames[f] = Some(Page::new(pid));
        self.dirty[f] = true;
        self.resident.insert(pid, f);
        self.referenced[f] = true;
        self.stats.creates += 1;
        Access { hit: false, read_io: false, wrote_back }
    }

    fn fault_in(&mut self, pid: PageId) -> Result<(usize, Access), PoolError> {
        if let Some(&f) = self.resident.get(&pid) {
            self.referenced[f] = true;
            self.stats.hits += 1;
            return Ok((f, Access { hit: true, read_io: false, wrote_back: false }));
        }
        let page = self.disk.get(&pid).cloned().ok_or(PoolError::UnknownPage(pid))?;
        let (f, wrote_back) = self.frame_for();
        self.frames[f] = Some(page);
        self.dirty[f] = false;
        self.resident.insert(pid, f);
        self.referenced[f] = true;
        self.stats.misses += 1;
        Ok((f, Access { hit: false, read_io: true, wrote_back }))
    }

    /// Fetch a page for reading.
    ///
    /// # Errors
    /// [`PoolError::UnknownPage`] when the page was never created.
    pub fn fetch(&mut self, pid: PageId) -> Result<(&Page, Access), PoolError> {
        let (f, acc) = self.fault_in(pid)?;
        Ok((self.frames[f].as_ref().expect("just faulted in"), acc))
    }

    /// Fetch a page for writing; the frame is marked dirty.
    ///
    /// # Errors
    /// [`PoolError::UnknownPage`] when the page was never created.
    pub fn fetch_mut(&mut self, pid: PageId) -> Result<(&mut Page, Access), PoolError> {
        let (f, acc) = self.fault_in(pid)?;
        self.dirty[f] = true;
        Ok((self.frames[f].as_mut().expect("just faulted in"), acc))
    }

    /// Write every dirty frame back to stable storage; returns how many
    /// pages were written.
    pub fn flush_all(&mut self) -> usize {
        let mut flushed = 0;
        for f in 0..self.capacity {
            if self.dirty[f] {
                let page = self.frames[f].clone().expect("dirty frames are occupied");
                self.disk.insert(page.id(), page);
                self.dirty[f] = false;
                self.stats.writebacks += 1;
                flushed += 1;
            }
        }
        flushed
    }

    /// The crash: frames are volatile and vanish — dirty pages are LOST.
    /// Stable storage survives. (Durability therefore belongs to the WAL,
    /// not to the pool.)
    pub fn drop_volatile(&mut self) {
        self.frames = vec![None; self.capacity];
        self.dirty = vec![false; self.capacity];
        self.resident.clear();
        self.referenced = vec![false; self.capacity];
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(cap: usize, pages: u32) -> BufferPool {
        let mut pool = BufferPool::new(cap);
        for i in 0..pages {
            pool.create(PageId(i));
            let (p, _) = pool.fetch_mut(PageId(i)).unwrap();
            p.insert(&i.to_le_bytes()).unwrap();
        }
        pool
    }

    #[test]
    fn resident_fetches_hit_without_io() {
        let mut pool = filled(4, 2);
        let (_, acc) = pool.fetch(PageId(0)).unwrap();
        assert_eq!(acc, Access { hit: true, read_io: false, wrote_back: false });
        assert_eq!(acc.ios(), 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages_and_refetch_reads_them() {
        let mut pool = filled(2, 3); // 3 pages through 2 frames
        assert!(pool.stats().writebacks >= 1, "eviction must write back");
        for i in 0..3 {
            let (p, _) = pool.fetch(PageId(i)).unwrap();
            assert_eq!(p.get(0), Some(&i.to_le_bytes()[..]), "page {i} intact");
        }
    }

    #[test]
    fn crash_loses_dirty_frames_but_keeps_disk() {
        let mut pool = filled(4, 2);
        pool.flush_all();
        let (p, _) = pool.fetch_mut(PageId(0)).unwrap();
        p.insert(b"lost-by-crash").unwrap();
        pool.drop_volatile();
        let (p, acc) = pool.fetch(PageId(0)).unwrap();
        assert!(acc.read_io, "post-crash fetch faults from disk");
        assert_eq!(p.live_records(), 1, "the unflushed insert vanished");
        assert!(!pool.contains(PageId(9)));
    }

    #[test]
    fn unknown_pages_error() {
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.fetch(PageId(7)).unwrap_err(), PoolError::UnknownPage(PageId(7)));
    }

    #[test]
    fn hit_pct_is_total_when_idle() {
        assert_eq!(PoolStats::default().hit_pct(), 100);
        let s = PoolStats { hits: 3, misses: 1, ..Default::default() };
        assert_eq!(s.hit_pct(), 75);
    }

    #[test]
    fn clock_grants_second_chances() {
        let mut pool = filled(3, 3);
        pool.flush_all();
        // All bits are set, so this first fault sweeps them clear and
        // evicts p0; only the new p3's bit is set afterwards.
        pool.create(PageId(3));
        // Re-reference p1: its bit alone protects it from the next sweep.
        pool.fetch(PageId(1)).unwrap();
        pool.create(PageId(4)); // must pass over p1 and take p2
        let (_, acc) = pool.fetch(PageId(1)).unwrap();
        assert!(acc.hit, "the re-referenced page survived the sweep");
        let (_, acc) = pool.fetch(PageId(2)).unwrap();
        assert!(!acc.hit, "the unreferenced neighbour was the victim");
    }

    #[test]
    fn frame_table_mirrors_residency_and_policy_state() {
        let mut pool = filled(3, 2);
        let table = pool.frame_table();
        assert_eq!(table.len(), 3, "one row per frame, empty ones included");
        assert_eq!(table[0].page, Some(PageId(0)));
        assert!(table[0].dirty, "unflushed creates are dirty");
        assert!(table[0].referenced, "an accessed frame holds its reference bit");
        assert_eq!(table[2].page, None, "the spare frame is empty");
        assert!(!table[2].dirty);
        assert_eq!(pool.resident(), 2);
        pool.flush_all();
        assert!(pool.frame_table().iter().all(|f| !f.dirty), "flush cleans every frame");
    }
}
