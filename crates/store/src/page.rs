//! The block/page layer: fixed-size pages with a slotted record format.
//!
//! A page is a real byte image — 4 KiB, the unit every transfer between
//! the buffer pool and stable storage is billed in ([`machine::cost::CostModel::page_io`]).
//! Records live in a classic slotted layout: a header and a slot directory
//! grow *up* from byte 0, record bodies grow *down* from the page end, and
//! the gap between them is the free space. Deleting a record tombstones its
//! slot; the body bytes are not compacted (recovery rebuilds pages from the
//! log, so fragmentation is bounded by a transaction's lifetime, not the
//! store's).
//!
//! Layout:
//!
//! ```text
//! 0         8          10        12              12+4*slots          free_end     4096
//! | lsn u64 | slots u16 | end u16 | slot dir ... |    free space    | record bodies |
//! ```
//!
//! Each slot-directory entry is `(offset u16, len u16)`; offset `0` (inside
//! the header, never a valid body) marks a tombstone.

use std::fmt;

/// Page size in bytes. Every page IO moves exactly this much.
pub const PAGE_SIZE: usize = 4096;

/// Page header bytes: lsn (8) + slot count (2) + free-end offset (2).
pub(crate) const HEADER_SIZE: usize = 12;

/// Bytes of directory bookkeeping per record.
pub(crate) const SLOT_SIZE: usize = 4;

/// The largest record body a page can hold (one slot, empty page).
pub(crate) const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// A page identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A record address: page plus slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecordId {
    /// The page holding the record body.
    pub page: PageId,
    /// Slot index within the page's directory.
    pub slot: u16,
}

/// One fixed-size slotted page.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    id: PageId,
    data: Box<[u8; PAGE_SIZE]>,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id)
            .field("lsn", &self.lsn())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Page {
    /// A fresh, empty page.
    #[must_use]
    pub fn new(id: PageId) -> Self {
        let mut p = Self { id, data: Box::new([0u8; PAGE_SIZE]) };
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    /// This page's id.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// The page LSN: the index of the last WAL record whose effect this
    /// page image reflects.
    #[must_use]
    pub(crate) fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.data[0..8].try_into().expect("8 header bytes"))
    }

    /// Stamp the page LSN.
    pub(crate) fn set_lsn(&mut self, lsn: u64) {
        self.data[0..8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of directory slots (live and tombstoned).
    #[must_use]
    pub(crate) fn slot_count(&self) -> u16 {
        u16::from_le_bytes(self.data[8..10].try_into().expect("2 header bytes"))
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[8..10].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes(self.data[10..12].try_into().expect("2 header bytes"))
    }

    fn set_free_end(&mut self, v: u16) {
        self.data[10..12].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, slot: u16) -> Option<(u16, u16)> {
        if slot >= self.slot_count() {
            return None;
        }
        let base = HEADER_SIZE + SLOT_SIZE * slot as usize;
        let off = u16::from_le_bytes(self.data[base..base + 2].try_into().expect("slot bytes"));
        let len = u16::from_le_bytes(self.data[base + 2..base + 4].try_into().expect("slot bytes"));
        Some((off, len))
    }

    fn set_slot(&mut self, slot: u16, off: u16, len: u16) {
        let base = HEADER_SIZE + SLOT_SIZE * slot as usize;
        self.data[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes available for one more record (body plus its slot entry).
    #[must_use]
    pub(crate) fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + SLOT_SIZE * self.slot_count() as usize;
        (self.free_end() as usize).saturating_sub(dir_end)
    }

    /// Whether a record of `len` body bytes fits.
    #[must_use]
    pub fn fits(&self, len: usize) -> bool {
        len <= MAX_RECORD && self.free_space() >= len + SLOT_SIZE
    }

    /// Insert a record body; returns its slot, or `None` when it does not
    /// fit (the caller allocates a fresh page).
    pub fn insert(&mut self, body: &[u8]) -> Option<u16> {
        if !self.fits(body.len()) {
            return None;
        }
        let slot = self.slot_count();
        let end = self.free_end() as usize;
        let off = end - body.len();
        self.data[off..end].copy_from_slice(body);
        self.set_free_end(off as u16);
        self.set_slot(slot, off as u16, body.len() as u16);
        self.set_slot_count(slot + 1);
        Some(slot)
    }

    /// Read a live record body.
    #[must_use]
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let (off, len) = self.slot(slot)?;
        if off == 0 {
            return None; // tombstone
        }
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Tombstone a slot. Returns `false` if the slot was absent or already
    /// dead. Body bytes stay in place (no compaction).
    pub fn delete(&mut self, slot: u16) -> bool {
        match self.slot(slot) {
            Some((off, _)) if off != 0 => {
                self.set_slot(slot, 0, 0);
                true
            }
            _ => false,
        }
    }

    /// Live records, in slot order.
    pub fn records(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|b| (s, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new(PageId(1));
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.records().count(), 2);
    }

    #[test]
    fn bodies_grow_down_directory_grows_up() {
        let mut p = Page::new(PageId(1));
        let before = p.free_space();
        p.insert(&[7u8; 100]).unwrap();
        assert_eq!(p.free_space(), before - 100 - SLOT_SIZE);
    }

    #[test]
    fn delete_tombstones_without_renumbering() {
        let mut p = Page::new(PageId(1));
        let s0 = p.insert(b"a").unwrap();
        let s1 = p.insert(b"b").unwrap();
        assert!(p.delete(s0));
        assert!(!p.delete(s0), "double delete is a no-op");
        assert_eq!(p.get(s0), None);
        assert_eq!(p.get(s1), Some(&b"b"[..]), "other slots keep their ids");
        assert_eq!(p.records().map(|(s, _)| s).collect::<Vec<_>>(), vec![s1]);
    }

    #[test]
    fn refuses_records_that_do_not_fit() {
        let mut p = Page::new(PageId(1));
        assert!(p.insert(&[0u8; MAX_RECORD + 1]).is_none());
        assert_eq!(p.insert(&[0u8; MAX_RECORD]).unwrap(), 0, "the max record fills the page");
        assert!(p.insert(b"x").is_none(), "and nothing else fits");
    }

    #[test]
    fn lsn_stamps_survive_edits() {
        let mut p = Page::new(PageId(9));
        p.set_lsn(41);
        p.insert(b"r").unwrap();
        assert_eq!(p.lsn(), 41);
        p.set_lsn(42);
        assert_eq!(p.lsn(), 42);
        assert_eq!(p.get(0), Some(&b"r"[..]));
    }

    #[test]
    fn out_of_range_slots_are_none() {
        let p = Page::new(PageId(1));
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(99), None);
    }
}
