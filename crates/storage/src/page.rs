//! Pages: the unit of simulated disk transfer.

/// Default page size in bytes (8 KiB, a common DBMS default).
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page on the simulated disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A fixed-size page of bytes.
///
/// The simulation mostly moves page *ids* around (the interesting
/// quantities are access counts), but pages carry real bytes so that
/// end-to-end tests can verify data survives eviction and reload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Page {
    /// This page's id.
    pub id: PageId,
    /// Page contents.
    pub data: Vec<u8>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed(id: PageId) -> Self {
        Page { id, data: vec![0; PAGE_SIZE] }
    }

    /// A page with the given contents, zero-padded to [`PAGE_SIZE`].
    ///
    /// # Panics
    /// Contents longer than a page are a logic error in the caller's
    /// encoder: truncating them would silently corrupt the tail of the
    /// record on disk, so every build panics instead.
    pub fn with_data(id: PageId, mut data: Vec<u8>) -> Self {
        assert!(
            data.len() <= PAGE_SIZE,
            "page payload ({} bytes) exceeds PAGE_SIZE ({PAGE_SIZE}) — encoder must split \
             or reject before reaching the page layer",
            data.len(),
        );
        data.resize(PAGE_SIZE, 0);
        Page { id, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page() {
        let p = Page::zeroed(PageId(3));
        assert_eq!(p.id, PageId(3));
        assert_eq!(p.data.len(), PAGE_SIZE);
        assert!(p.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn with_data_pads() {
        let p = Page::with_data(PageId(0), vec![1, 2, 3]);
        assert_eq!(p.data.len(), PAGE_SIZE);
        assert_eq!(&p.data[..3], &[1, 2, 3]);
        assert!(p.data[3..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds PAGE_SIZE")]
    fn with_data_rejects_oversized_payloads() {
        let big = vec![9u8; PAGE_SIZE + 100];
        let _ = Page::with_data(PageId(1), big);
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(42).to_string(), "p42");
    }
}
