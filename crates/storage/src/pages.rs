//! Page model: converts logical accesses into page reads.
//!
//! §6.1 of the paper sets the Index Fabric block size to 8 KiB; we use the
//! same page size for every storage structure so page counts are
//! comparable across indexes.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

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
}

/// Prefix byte offsets of page-packed variable-size records: record `i`
/// occupies `offsets[i]..offsets[i+1]`. Index processors lay out their
/// node records (APEX: 16 bytes header + 8 per edge) once with it, then
/// charge byte ranges through the query executor's `IndexNav`.
pub fn record_layout(record_bytes: impl Iterator<Item = usize>) -> Vec<u64> {
    let mut offsets = vec![0u64];
    let mut acc = 0u64;
    for b in record_bytes {
        acc += b as u64;
        offsets.push(acc);
    }
    offsets
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
    #[should_panic(expected = "non-zero")]
    fn zero_page_size_panics() {
        let _ = PageModel::new(0);
    }
}
