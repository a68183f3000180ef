//! Page model: converts logical accesses into page reads.
//!
//! §6.1 of the paper sets the Index Fabric block size to 8 KiB; we use the
//! same page size for every storage structure so page counts are
//! comparable across indexes.

use crate::cost::Cost;

/// Converts byte volumes into page reads at a fixed page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageModel {
    /// Page size in bytes.
    pub page_size: usize,
}

/// The paper's 8 KiB block size.
pub const DEFAULT_PAGE_SIZE: usize = 8 * 1024;

impl Default for PageModel {
    fn default() -> Self {
        PageModel {
            page_size: DEFAULT_PAGE_SIZE,
        }
    }
}

impl PageModel {
    /// A model with a custom page size (must be non-zero).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        PageModel { page_size }
    }

    /// Pages needed to hold `bytes` (minimum 1 for non-empty data).
    pub fn pages_for_bytes(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.page_size) as u64
        }
    }

    /// Charges one data-table probe: a root-to-leaf descent of a paged
    /// binary-searchable table with `entries` entries, ~`entry_bytes` per
    /// entry. Models `ceil(log2(pages))+1` page touches, floored at 1.
    pub fn charge_table_probe(&self, cost: &mut Cost, entries: usize, entry_bytes: usize) {
        cost.table_probes += 1;
        let pages = self.pages_for_bytes(entries * entry_bytes).max(1);
        let touched = 64 - pages.leading_zeros() as u64; // ~log2(pages)+1
        cost.pages_read += touched.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_bytes_rounds_up() {
        let m = PageModel::default();
        assert_eq!(m.pages_for_bytes(0), 0);
        assert_eq!(m.pages_for_bytes(1), 1);
        assert_eq!(m.pages_for_bytes(8192), 1);
        assert_eq!(m.pages_for_bytes(8193), 2);
    }

    #[test]
    fn table_probe_is_logarithmic() {
        let m = PageModel::default();
        let mut small = Cost::new();
        m.charge_table_probe(&mut small, 10, 16);
        let mut big = Cost::new();
        m.charge_table_probe(&mut big, 1_000_000, 16);
        assert_eq!(small.table_probes, 1);
        assert!(big.pages_read > small.pages_read);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_page_size_panics() {
        let _ = PageModel::new(0);
    }
}
