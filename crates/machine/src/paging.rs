//! Paging memory protection — the model traditional kernels use.
//!
//! BSD, Mach and L4 all protect address spaces with page tables. Two costs of
//! that choice matter for the paper's argument:
//!
//! 1. **Time.** Switching protection domains means loading a new page-table
//!    base, which flushes the TLB; the cycles show up as refills over the new
//!    working set, which each comparator kernel charges as
//!    [`Primitive::TlbRefill`](crate::cost::Primitive::TlbRefill) over its
//!    own working-set size. (Go! switches protection with three 1-cycle
//!    segment loads instead.)
//! 2. **Space.** The granule of protection is a page (4 KiB) and the mapping
//!    structures themselves cost a page-table page per 4 MiB region — versus
//!    Go!'s 32-byte interface descriptors. This is the "around two orders of
//!    magnitude improvement" the paper claims.

/// Bytes per page.
pub const PAGE_SIZE: u32 = 4096;

/// Entries per page-table page (matches IA32: 1024 × 4-byte entries).
pub(crate) const ENTRIES_PER_TABLE: u32 = 1024;

/// Protection bits on a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFlags {
    /// Writable.
    pub write: bool,
    /// Accessible from user mode.
    pub user: bool,
}

/// A virtual page number.
pub(crate) type Vpn = u32;
/// A physical frame number.
pub(crate) type Pfn = u32;

/// Errors raised by the paging unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageError {
    /// No mapping for the page.
    NotMapped(Vpn),
    /// Write to a read-only page.
    ReadOnly(Vpn),
    /// User-mode access to a supervisor page.
    Supervisor(Vpn),
}

/// An address space: a sparse map from virtual page to physical frame.
///
/// Sparse `Vec` of (vpn, pfn, flags) kept sorted — address spaces here hold
/// tens of mappings, and a sorted vec beats a hash map at that size.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    maps: Vec<(Vpn, Pfn, PageFlags)>,
}

impl AddressSpace {
    /// An empty address space.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Map a page, replacing any existing mapping.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn, flags: PageFlags) {
        match self.maps.binary_search_by_key(&vpn, |e| e.0) {
            Ok(i) => self.maps[i] = (vpn, pfn, flags),
            Err(i) => self.maps.insert(i, (vpn, pfn, flags)),
        }
    }

    /// Translate a page, checking protection.
    ///
    /// # Errors
    /// [`PageError`] protection violations.
    pub fn translate(&self, vpn: Vpn, write: bool, user: bool) -> Result<Pfn, PageError> {
        let (_, pfn, flags) = self.maps[self
            .maps
            .binary_search_by_key(&vpn, |e| e.0)
            .map_err(|_| PageError::NotMapped(vpn))?];
        if write && !flags.write {
            return Err(PageError::ReadOnly(vpn));
        }
        if user && !flags.user {
            return Err(PageError::Supervisor(vpn));
        }
        Ok(pfn)
    }

    /// Bytes of mapping-structure overhead this address space consumes:
    /// one 4-byte entry per mapping plus one 4 KiB table page per distinct
    /// 4 MiB region touched (the IA32 two-level layout), plus the 4 KiB
    /// directory page.
    #[must_use]
    pub fn protection_bytes(&self) -> u64 {
        if self.maps.is_empty() {
            return 0;
        }
        let mut regions: Vec<u32> = self.maps.iter().map(|e| e.0 / ENTRIES_PER_TABLE).collect();
        regions.dedup();
        // directory page + one table page per region
        u64::from(PAGE_SIZE) * (1 + regions.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RW_USER: PageFlags = PageFlags { write: true, user: true };
    const RO_USER: PageFlags = PageFlags { write: false, user: true };
    const RW_SUP: PageFlags = PageFlags { write: true, user: false };

    #[test]
    fn protection_bits_enforced() {
        let mut a = AddressSpace::new();
        a.map(1, 10, RO_USER);
        a.map(2, 20, RW_SUP);
        assert_eq!(a.translate(1, true, true), Err(PageError::ReadOnly(1)));
        assert_eq!(a.translate(2, false, true), Err(PageError::Supervisor(2)));
        assert_eq!(a.translate(2, true, false), Ok(20));
        assert_eq!(a.translate(3, false, false), Err(PageError::NotMapped(3)));
    }

    #[test]
    fn remap_replaces() {
        let mut a = AddressSpace::new();
        a.map(1, 10, RO_USER);
        a.map(1, 11, RW_USER);
        assert_eq!(a.translate(1, true, true), Ok(11));
    }

    #[test]
    fn protection_bytes_page_granular() {
        let mut a = AddressSpace::new();
        assert_eq!(a.protection_bytes(), 0);
        a.map(0, 1, RW_USER);
        // directory + one table page even for a single mapping: 8 KiB.
        assert_eq!(a.protection_bytes(), 8192);
        // Second mapping in the same 4 MiB region: no new table page.
        a.map(1, 2, RW_USER);
        assert_eq!(a.protection_bytes(), 8192);
        // Mapping in a distant region: one more table page.
        a.map(5000, 3, RW_USER);
        assert_eq!(a.protection_bytes(), 12288);
    }
}
