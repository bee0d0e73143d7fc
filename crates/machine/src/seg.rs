//! Segmentation memory protection — the model Go!/SISR uses.
//!
//! SISR's unit of protection is the *component*: each component instance owns
//! a data segment, each component type owns a code segment, and a thread
//! carries a stack segment. Protection holds because (a) every memory access
//! is checked against the current segment's base/limit, and (b) segment
//! registers can only be loaded by privileged instructions, which the SISR
//! scanner guarantees are absent from component text — only the ORB can
//! retarget them.
//!
//! The descriptor table here plays the role of the IA32 GDT. Crucially for
//! the paper's memory claim, a descriptor is a few words, not a page table:
//! protection state per interface is ~32 bytes versus ≥4 KiB-granular page
//! structures (see `gokernel::component::InterfaceDescriptor`).

/// Which segment register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegReg {
    /// Code segment register.
    Cs = 0,
    /// Data segment register.
    Ds = 1,
    /// Stack segment register.
    Ss = 2,
}

impl SegReg {
    /// Decode from a byte (for [`crate::isa::Instr::decode`]).
    #[must_use]
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(SegReg::Cs),
            1 => Some(SegReg::Ds),
            2 => Some(SegReg::Ss),
            _ => None,
        }
    }
}

/// What a segment may be used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Executable, read-only.
    Code,
    /// Readable and writable data.
    Data,
    /// Readable and writable, grows-down stack.
    Stack,
}

/// A segment descriptor: a base/limit pair plus a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First byte of the segment in simulated physical memory.
    pub base: u32,
    /// Length of the segment in bytes; offsets `0..limit` are valid.
    pub limit: u32,
    /// What the segment may be used for.
    pub kind: SegmentKind,
}

impl Segment {
    /// Translate a segment-relative offset to a physical address, checking
    /// the limit. This is the per-access protection check.
    #[must_use]
    pub fn translate(&self, offset: u32, len: u32) -> Option<u32> {
        let end = offset.checked_add(len)?;
        if end <= self.limit {
            Some(self.base.wrapping_add(offset))
        } else {
            None
        }
    }

    /// Size of an encoded descriptor in bytes. Matches IA32's 8-byte GDT
    /// entries; the paper's "32 bytes per interface" is four such words
    /// (code seg, data seg, entry point, type/rights).
    pub const DESCRIPTOR_BYTES: u32 = 8;
}

/// A selector naming a descriptor in a [`SegmentTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Selector(pub u16);

/// Errors raised by the segmentation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegError {
    /// The selector does not name a live descriptor.
    BadSelector(Selector),
    /// Access beyond a segment's limit.
    LimitViolation {
        /// Offending selector.
        selector: Selector,
        /// Offset that was attempted.
        offset: u32,
    },
    /// A segment was used for an access its kind forbids (e.g. writing the
    /// code segment).
    KindViolation {
        /// Offending selector.
        selector: Selector,
        /// Kind of the segment as declared.
        kind: SegmentKind,
    },
    /// The table is full.
    TableFull,
}

/// The descriptor table (GDT analogue).
///
/// Slots are allocated and freed as components are loaded and unloaded;
/// freed slots are reused, and a generation check is deliberately *not*
/// modelled (the ORB is trusted and single-threaded per CPU in Go!).
#[derive(Debug, Clone, Default)]
pub struct SegmentTable {
    slots: Vec<Option<Segment>>,
}

impl SegmentTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a descriptor, returning its selector.
    ///
    /// # Errors
    /// [`SegError::TableFull`] when all 65 536 slots are in use.
    pub fn install(&mut self, seg: Segment) -> Result<Selector, SegError> {
        if let Some(idx) = self.slots.iter().position(Option::is_none) {
            self.slots[idx] = Some(seg);
            return Ok(Selector(idx as u16));
        }
        if self.slots.len() > usize::from(u16::MAX) {
            return Err(SegError::TableFull);
        }
        self.slots.push(Some(seg));
        Ok(Selector((self.slots.len() - 1) as u16))
    }

    /// Remove a descriptor.
    ///
    /// # Errors
    /// [`SegError::BadSelector`] if the slot is not live.
    pub fn remove(&mut self, sel: Selector) -> Result<Segment, SegError> {
        let slot = self.slots.get_mut(usize::from(sel.0)).ok_or(SegError::BadSelector(sel))?;
        slot.take().ok_or(SegError::BadSelector(sel))
    }

    /// Look up a descriptor.
    ///
    /// # Errors
    /// [`SegError::BadSelector`] if the slot is not live.
    pub(crate) fn lookup(&self, sel: Selector) -> Result<Segment, SegError> {
        self.slots.get(usize::from(sel.0)).and_then(|s| *s).ok_or(SegError::BadSelector(sel))
    }

    /// Check and translate an access of `len` bytes at `offset` through
    /// selector `sel`, requiring the segment kind to permit `write`.
    ///
    /// # Errors
    /// Any of the [`SegError`] protection violations.
    pub fn access(
        &self,
        sel: Selector,
        offset: u32,
        len: u32,
        write: bool,
        execute: bool,
    ) -> Result<u32, SegError> {
        let seg = self.lookup(sel)?;
        let kind_ok = match seg.kind {
            SegmentKind::Code => execute && !write,
            SegmentKind::Data | SegmentKind::Stack => !execute,
        };
        if !kind_ok {
            return Err(SegError::KindViolation { selector: sel, kind: seg.kind });
        }
        seg.translate(offset, len).ok_or(SegError::LimitViolation { selector: sel, offset })
    }

    /// Number of live descriptors.
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Bytes of protection state this table consumes (live descriptors only)
    /// — the quantity behind the paper's "32 bytes per interface" comparison.
    #[must_use]
    pub fn protection_bytes(&self) -> u64 {
        self.live() as u64 * u64::from(Segment::DESCRIPTOR_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_seg(base: u32, limit: u32) -> Segment {
        Segment { base, limit, kind: SegmentKind::Data }
    }

    #[test]
    fn translate_checks_limit_inclusive_of_length() {
        let s = data_seg(0x1000, 16);
        assert_eq!(s.translate(0, 4), Some(0x1000));
        assert_eq!(s.translate(12, 4), Some(0x100c));
        assert_eq!(s.translate(13, 4), None, "crosses the limit");
        assert_eq!(s.translate(16, 0), Some(0x1010), "zero-length at limit ok");
    }

    #[test]
    fn translate_rejects_offset_overflow() {
        let s = data_seg(0, u32::MAX);
        assert_eq!(s.translate(u32::MAX, 4), None);
    }

    #[test]
    fn install_lookup_remove_cycle() {
        let mut t = SegmentTable::new();
        let a = t.install(data_seg(0, 64)).unwrap();
        let b = t.install(data_seg(64, 64)).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.lookup(a).unwrap().base, 0);
        assert_eq!(t.live(), 2);
        t.remove(a).unwrap();
        assert_eq!(t.lookup(a), Err(SegError::BadSelector(a)));
        // Freed slot is reused.
        let c = t.install(data_seg(128, 64)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn access_enforces_kind() {
        let mut t = SegmentTable::new();
        let code = t.install(Segment { base: 0, limit: 64, kind: SegmentKind::Code }).unwrap();
        let data = t.install(data_seg(64, 64)).unwrap();
        // Executing code: fine. Writing code: violation.
        assert!(t.access(code, 0, 8, false, true).is_ok());
        assert!(matches!(t.access(code, 0, 8, true, false), Err(SegError::KindViolation { .. })));
        // Executing data: violation. Writing data: fine.
        assert!(matches!(t.access(data, 0, 8, false, true), Err(SegError::KindViolation { .. })));
        assert!(t.access(data, 0, 8, true, false).is_ok());
    }

    #[test]
    fn access_enforces_limit() {
        let mut t = SegmentTable::new();
        let d = t.install(data_seg(0, 32)).unwrap();
        assert!(matches!(
            t.access(d, 30, 4, false, false),
            Err(SegError::LimitViolation { offset: 30, .. })
        ));
    }

    #[test]
    fn protection_bytes_counts_live_descriptors() {
        let mut t = SegmentTable::new();
        let a = t.install(data_seg(0, 1)).unwrap();
        t.install(data_seg(1, 1)).unwrap();
        assert_eq!(t.protection_bytes(), 16);
        t.remove(a).unwrap();
        assert_eq!(t.protection_bytes(), 8);
    }
}
