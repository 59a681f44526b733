//! Address newtypes and page geometry.
//!
//! The simulator works almost exclusively on *physical line addresses*
//! ([`LineAddr`]): byte address divided by the 64-byte line size. The L2
//! prefetchers of the paper (§5.6) "work on physical line addresses" and
//! "generate prefetch addresses from core request addresses, by modifying
//! the page-offset bits, keeping physical page numbers unchanged" — which
//! is exactly what [`LineAddr::checked_offset`] implements.

use core::fmt;

/// Cache line size in bytes (Table 1: "cache line 64 bytes").
pub const LINE_BYTES: u64 = 64;

/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// A virtual byte address as produced by the core.
///
/// The DL1 stride prefetcher (§5.5) trains on virtual addresses; everything
/// beyond the TLB works on [`PhysAddr`] / [`LineAddr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A physical *line* address: the byte address shifted right by
/// [`LINE_SHIFT`].
///
/// All caches, prefetchers and the DRAM mapping operate on line addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// Memory page size.
///
/// The paper evaluates 4KB pages and 4MB superpages (§5, Table 1). Offset
/// prefetchers never prefetch across a page boundary (§4.2), so the page
/// size bounds the useful offset range: 63 lines for 4KB pages, 65535 for
/// 4MB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KiB pages (64 lines per page).
    K4,
    /// 4 MiB superpages (65536 lines per page).
    M4,
}

impl VirtAddr {
    /// The virtual page number under the given page size.
    #[inline]
    pub fn page_number(self, size: PageSize) -> u64 {
        self.0 >> size.page_shift()
    }

    /// The byte offset within the page.
    #[inline]
    pub fn page_offset(self, size: PageSize) -> u64 {
        self.0 & (size.page_bytes() - 1)
    }

    /// The virtual line address (used by the DL1 stride prefetcher filter).
    #[inline]
    pub fn line(self) -> u64 {
        self.0 >> LINE_SHIFT
    }
}

impl PhysAddr {
    /// The physical line address containing this byte address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }
}

impl LineAddr {
    /// Builds a line address from a physical byte address.
    ///
    /// ```
    /// use bosim_types::LineAddr;
    /// assert_eq!(LineAddr::from_byte_addr(0x1000).0, 0x40);
    /// ```
    #[inline]
    pub fn from_byte_addr(byte_addr: u64) -> Self {
        LineAddr(byte_addr >> LINE_SHIFT)
    }

    /// The physical page number of the page containing this line.
    #[inline]
    pub fn page_number(self, size: PageSize) -> u64 {
        self.0 >> size.line_shift()
    }

    /// The line's index within its page (0-based).
    #[inline]
    pub fn line_in_page(self, size: PageSize) -> u64 {
        self.0 & (size.lines_per_page() - 1)
    }

    /// Returns `true` if `self` and `other` lie in the same memory page.
    #[inline]
    pub fn same_page(self, other: LineAddr, size: PageSize) -> bool {
        self.page_number(size) == other.page_number(size)
    }

    /// Applies a (possibly negative) line offset, returning `None` when the
    /// result would cross a page boundary.
    ///
    /// This is the page-bound arithmetic of §4.4: the adders "need only
    /// produce the position of a line inside a page", and the page number
    /// bits are copied unchanged.
    ///
    /// ```
    /// use bosim_types::{LineAddr, PageSize};
    /// let last = LineAddr(63); // last line of the first 4KB page
    /// assert_eq!(last.checked_offset(1, PageSize::K4), None);
    /// assert_eq!(last.checked_offset(-63, PageSize::K4), Some(LineAddr(0)));
    /// ```
    #[inline]
    pub fn checked_offset(self, offset: i64, size: PageSize) -> Option<LineAddr> {
        let pos = self.line_in_page(size) as i64;
        let lines = size.lines_per_page() as i64;
        let new = pos + offset;
        if new < 0 || new >= lines {
            None
        } else {
            let page_base = self.0 & !(size.lines_per_page() - 1);
            Some(LineAddr(page_base | new as u64))
        }
    }
}

impl PageSize {
    /// log2 of the page size in bytes (12 for 4KB, 22 for 4MB).
    #[inline]
    pub fn page_shift(self) -> u32 {
        match self {
            PageSize::K4 => 12,
            PageSize::M4 => 22,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_bytes(self) -> u64 {
        1 << self.page_shift()
    }

    /// log2 of the number of lines per page.
    #[inline]
    pub fn line_shift(self) -> u32 {
        self.page_shift() - LINE_SHIFT
    }

    /// Number of 64-byte lines per page (64 for 4KB, 65536 for 4MB).
    ///
    /// ```
    /// use bosim_types::PageSize;
    /// assert_eq!(PageSize::K4.lines_per_page(), 64);
    /// assert_eq!(PageSize::M4.lines_per_page(), 65536);
    /// ```
    #[inline]
    pub fn lines_per_page(self) -> u64 {
        1 << self.line_shift()
    }

    /// Human-readable label used by the figure harnesses ("4KB" / "4MB").
    pub fn label(self) -> &'static str {
        match self {
            PageSize::K4 => "4KB",
            PageSize::M4 => "4MB",
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn line_from_byte_addr_strips_offset() {
        for b in 0..64 {
            assert_eq!(LineAddr::from_byte_addr(0x40 * 7 + b), LineAddr(7));
        }
    }

    #[test]
    fn page_geometry_4k() {
        let s = PageSize::K4;
        assert_eq!(s.page_bytes(), 4096);
        assert_eq!(s.lines_per_page(), 64);
        assert_eq!(LineAddr(64).page_number(s), 1);
        assert_eq!(LineAddr(64).line_in_page(s), 0);
        assert_eq!(LineAddr(127).line_in_page(s), 63);
    }

    #[test]
    fn page_geometry_4m() {
        let s = PageSize::M4;
        assert_eq!(s.page_bytes(), 4 << 20);
        assert_eq!(s.lines_per_page(), 65536);
    }

    #[test]
    fn checked_offset_within_page() {
        let line = LineAddr(10);
        assert_eq!(line.checked_offset(5, PageSize::K4), Some(LineAddr(15)));
        assert_eq!(line.checked_offset(-10, PageSize::K4), Some(LineAddr(0)));
    }

    #[test]
    fn checked_offset_rejects_page_crossing() {
        let line = LineAddr(60);
        assert_eq!(line.checked_offset(4, PageSize::K4), None);
        assert_eq!(line.checked_offset(-61, PageSize::K4), None);
        // Same offset fits easily inside a 4MB page.
        assert_eq!(line.checked_offset(4, PageSize::M4), Some(LineAddr(64)));
    }

    #[test]
    fn virt_addr_page_number_and_offset() {
        let v = VirtAddr(0x0123_4567);
        assert_eq!(v.page_number(PageSize::K4), 0x0123_4567 >> 12);
        assert_eq!(v.page_offset(PageSize::K4), 0x567);
    }

    /// `checked_offset` never crosses a page and is exact when it
    /// succeeds. Deterministic pseudo-random cases.
    #[test]
    fn prop_checked_offset_preserves_page() {
        let mut rng = SplitMix64::new(42);
        for case in 0..512u64 {
            let size = if case % 2 == 0 {
                PageSize::M4
            } else {
                PageSize::K4
            };
            let l = LineAddr(rng.next_u64() % (1 << 40));
            let off = (rng.next_u64() % 140_000) as i64 - 70_000;
            if let Some(n) = l.checked_offset(off, size) {
                assert!(n.same_page(l, size));
                assert_eq!(n.0 as i64 - l.0 as i64, off);
            } else {
                // Offset must genuinely fall outside the page.
                let pos = l.line_in_page(size) as i64 + off;
                assert!(pos < 0 || pos >= size.lines_per_page() as i64);
            }
        }
    }
}
