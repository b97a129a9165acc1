//! Page-granular file access with per-page checksums.
//!
//! Every durable structure in this crate — the transaction heap file, its
//! positional index, and the BBS slice file — talks to its backing file
//! exclusively through a [`Pager`]: fixed-size pages, explicit read/write,
//! and physical-I/O counters that the cache layer exposes upward.
//!
//! # Checksum layout
//!
//! The file interleaves one **checksum page** ahead of every 512 data
//! pages; a checksum page is exactly 512 little-endian FNV-1a-64 digests
//! (512 × 8 = 4096 bytes), one per data page of its group:
//!
//! ```text
//! physical 0        checksums of logical pages 0..512
//! physical 1..513   logical pages 0..512
//! physical 513      checksums of logical pages 512..1024
//! physical 514..    logical pages 512..
//! ```
//!
//! Callers address **logical** pages; the pager maps them to physical
//! positions, verifies every read against its digest, and maintains the
//! digests on write (they are cached in memory and written out by
//! [`Pager::sync`]).  A failed verification surfaces as an
//! [`io::ErrorKind::InvalidData`] error wrapping a typed
//! [`ChecksumMismatch`] — corrupt bytes are never returned as data.
//!
//! Recovery code uses [`Pager::read_page_raw`] (no verification) and
//! [`Pager::truncate_logical`] to repair files after a torn write; see
//! `diskbbs` for the commit protocol that decides *what* to repair.

use crate::backend::{FileBackend, StorageBackend};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Page size in bytes.  4 KiB matches the simulated cost model in
/// `bbs-tdb` so disk-backed and in-memory ledgers are comparable.
pub const PAGE_SIZE: usize = 4096;

/// Data pages per checksum group (one digest slot per page).
pub const GROUP_DATA_PAGES: u64 = (PAGE_SIZE / 8) as u64;

/// Physical pages per group: the checksum page plus its data pages.
pub const GROUP_PHYS_PAGES: u64 = GROUP_DATA_PAGES + 1;

/// A logical page number within one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

/// One page worth of bytes, 8-byte aligned so that a slice page can be
/// read in place as `u64` words (see `SliceFile`'s counting path) instead
/// of relying on the allocator's alignment.
#[derive(Clone, Debug, PartialEq, Eq)]
#[repr(C, align(8))]
pub struct Page(pub [u8; PAGE_SIZE]);

impl std::ops::Deref for Page {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &[u8; PAGE_SIZE] {
        &self.0
    }
}

impl std::ops::DerefMut for Page {
    fn deref_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.0
    }
}

/// A heap-allocated page.
pub type PageBuf = Box<Page>;

/// Allocates a zeroed page buffer.
pub fn zeroed_page() -> PageBuf {
    Box::new(Page([0u8; PAGE_SIZE]))
}

/// The FNV-1a 64-bit offset basis (initial digest state).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit digest.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit digest (the in-repo checksum; no external crates).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Physical page index of logical page `l`.
pub fn phys_of(l: u64) -> u64 {
    let group = l / GROUP_DATA_PAGES;
    let slot = l % GROUP_DATA_PAGES;
    group * GROUP_PHYS_PAGES + 1 + slot
}

/// Physical page index of group `g`'s checksum page.
pub fn checksum_phys_of(group: u64) -> u64 {
    group * GROUP_PHYS_PAGES
}

/// Number of logical pages representable by `phys` physical pages.
pub fn logical_pages_for_phys(phys: u64) -> u64 {
    let full = phys / GROUP_PHYS_PAGES;
    let rem = phys % GROUP_PHYS_PAGES;
    // A trailing lone checksum page (rem == 1) carries no data.
    full * GROUP_DATA_PAGES + rem.saturating_sub(1)
}

/// Number of physical pages needed to hold `n` logical pages.
pub fn phys_pages_for_logical(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        n + n.div_ceil(GROUP_DATA_PAGES)
    }
}

/// A verified read found bytes that do not match their stored digest.
///
/// Wrapped inside an [`io::Error`] of kind [`io::ErrorKind::InvalidData`];
/// retrieve it with [`checksum_mismatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumMismatch {
    /// The logical page whose bytes failed verification.
    pub page: u64,
    /// The digest recorded in the checksum page.
    pub expected: u64,
    /// The digest of the bytes actually read.
    pub actual: u64,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checksum mismatch on page {}: stored {:#018x}, computed {:#018x}",
            self.page, self.expected, self.actual
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

impl ChecksumMismatch {
    fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, self)
    }
}

/// Extracts the typed [`ChecksumMismatch`] from an I/O error, if that is
/// what it carries.
pub fn checksum_mismatch(e: &io::Error) -> Option<&ChecksumMismatch> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

/// Physical I/O counters for one pager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Data pages physically read from the file.
    pub reads: u64,
    /// Data pages physically written to the file.
    pub writes: u64,
    /// Checksum pages physically read.
    pub checksum_reads: u64,
    /// Checksum pages physically written.
    pub checksum_writes: u64,
    /// Data pages whose digest was checked and found valid on read.
    pub verified: u64,
}

struct ChecksumFrame {
    buf: PageBuf,
    dirty: bool,
}

/// A fixed-page-size file wrapper with verified reads.
pub struct Pager<B: StorageBackend = FileBackend> {
    backend: B,
    /// Number of logical pages the file currently holds.
    logical: u64,
    stats: PagerStats,
    /// Checksum pages resident in memory, keyed by group.
    checksums: HashMap<u64, ChecksumFrame>,
}

impl Pager<FileBackend> {
    /// Opens (or creates) a paged file at `path`.
    pub fn open(path: &Path) -> io::Result<Self> {
        Pager::new(FileBackend::open(path)?)
    }
}

impl<B: StorageBackend> Pager<B> {
    /// Wraps a backend as a paged file.
    ///
    /// A trailing partial page (the footprint of a write torn by a crash
    /// while extending the file) is discarded: no committed page can live
    /// there, because committed extensions complete before a commit record
    /// is written.
    pub fn new(mut backend: B) -> io::Result<Self> {
        let len = backend.len()?;
        let phys = len / PAGE_SIZE as u64;
        if len % PAGE_SIZE as u64 != 0 {
            backend.set_len(phys * PAGE_SIZE as u64)?;
        }
        Ok(Pager {
            backend,
            logical: logical_pages_for_phys(phys),
            stats: PagerStats::default(),
            checksums: HashMap::new(),
        })
    }

    /// Number of logical (data) pages in the file.
    pub fn page_count(&self) -> u64 {
        self.logical
    }

    /// Physical I/O counters so far.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Loads (or materialises) the checksum page of `group`.
    fn checksum_frame(&mut self, group: u64) -> io::Result<&mut ChecksumFrame> {
        if !self.checksums.contains_key(&group) {
            let mut buf = zeroed_page();
            let phys = checksum_phys_of(group);
            // Only read what the file physically holds; groups beyond the
            // end start from an all-zero digest page.
            if (phys + 1) * PAGE_SIZE as u64 <= self.backend.len()? {
                self.backend.read_at(phys * PAGE_SIZE as u64, &mut buf[..])?;
                self.stats.checksum_reads += 1;
            }
            self.checksums.insert(group, ChecksumFrame { buf, dirty: false });
        }
        Ok(self.checksums.get_mut(&group).expect("just inserted"))
    }

    fn stored_digest(&mut self, logical: u64) -> io::Result<u64> {
        let group = logical / GROUP_DATA_PAGES;
        let slot = (logical % GROUP_DATA_PAGES) as usize;
        let frame = self.checksum_frame(group)?;
        let raw = &frame.buf[slot * 8..slot * 8 + 8];
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Drops the cached checksum page of `logical`'s group so the next
    /// [`Pager::stored_digest`] re-reads it from disk — but only when the
    /// cached frame is **clean**.  A dirty frame belongs to this handle's
    /// own un-synced writes and is authoritative; discarding it would lose
    /// digests.  Returns whether a cached frame was actually dropped.
    ///
    /// Read-only handles use this to recover from *stale* digests: another
    /// handle of the same file may have rewritten a data page and its
    /// checksum page after we cached the group.  Re-reading resolves
    /// staleness while leaving genuine corruption detectable (the digest on
    /// disk still mismatches corrupt bytes).
    fn evict_clean_checksum_frame(&mut self, logical: u64) -> bool {
        let group = logical / GROUP_DATA_PAGES;
        match self.checksums.get(&group) {
            Some(frame) if !frame.dirty => {
                self.checksums.remove(&group);
                true
            }
            _ => false,
        }
    }

    fn record_digest(&mut self, logical: u64, digest: u64) -> io::Result<()> {
        let group = logical / GROUP_DATA_PAGES;
        let slot = (logical % GROUP_DATA_PAGES) as usize;
        let frame = self.checksum_frame(group)?;
        frame.buf[slot * 8..slot * 8 + 8].copy_from_slice(&digest.to_le_bytes());
        frame.dirty = true;
        Ok(())
    }

    /// Reads logical page `id` into a fresh buffer, verifying its digest.
    ///
    /// Reading past the end returns a zeroed page without touching the file
    /// (the page will materialise when first written) — this mirrors the
    /// zero-extension semantics of the in-memory bit-slices.
    pub fn read_page(&mut self, id: PageId) -> io::Result<PageBuf> {
        let buf = self.read_page_raw(id)?;
        if id.0 < self.logical {
            let mut expected = self.stored_digest(id.0)?;
            let actual = fnv1a64(&buf[..]);
            if actual != expected {
                // The mismatch may be a *stale* cached digest rather than
                // corrupt data: another handle of this file (the snapshot
                // writer) can rewrite a data page and its checksum page
                // after we cached the group.  Re-read the checksum page
                // from disk once and re-verify; genuine corruption still
                // mismatches against the on-disk digest.
                if self.evict_clean_checksum_frame(id.0) {
                    expected = self.stored_digest(id.0)?;
                }
                if actual != expected {
                    return Err(ChecksumMismatch {
                        page: id.0,
                        expected,
                        actual,
                    }
                    .into_io());
                }
            }
            self.stats.verified += 1;
        }
        Ok(buf)
    }

    /// Reads logical page `id` **without** digest verification.
    ///
    /// Recovery uses this to salvage the committed prefix of a torn page;
    /// everything else should go through [`Pager::read_page`].
    pub fn read_page_raw(&mut self, id: PageId) -> io::Result<PageBuf> {
        let mut buf = zeroed_page();
        if id.0 < self.logical {
            self.backend
                .read_at(phys_of(id.0) * PAGE_SIZE as u64, &mut buf[..])?;
            self.stats.reads += 1;
        }
        Ok(buf)
    }

    /// Writes logical page `id`, extending the file (with zero pages) if
    /// needed, and records its digest.
    pub fn write_page(&mut self, id: PageId, data: &[u8; PAGE_SIZE]) -> io::Result<()> {
        if id.0 > self.logical {
            // Extend with explicit zero pages so every logical page below
            // the new end exists on disk with a valid digest.
            let zero = zeroed_page();
            let zero_digest = fnv1a64(&zero[..]);
            for gap in self.logical..id.0 {
                self.backend
                    .write_at(phys_of(gap) * PAGE_SIZE as u64, &zero[..])?;
                self.record_digest(gap, zero_digest)?;
                self.stats.writes += 1;
            }
        }
        self.backend
            .write_at(phys_of(id.0) * PAGE_SIZE as u64, &data[..])?;
        self.record_digest(id.0, fnv1a64(&data[..]))?;
        self.stats.writes += 1;
        self.logical = self.logical.max(id.0 + 1);
        Ok(())
    }

    /// Truncates the file to exactly `n` logical pages.
    ///
    /// Digest slots of discarded pages in the surviving boundary group are
    /// zeroed so the checksum page carries no stale entries.
    pub fn truncate_logical(&mut self, n: u64) -> io::Result<()> {
        self.backend
            .set_len(phys_pages_for_logical(n) * PAGE_SIZE as u64)?;
        self.logical = n;
        let boundary = if n == 0 { 0 } else { (n - 1) / GROUP_DATA_PAGES };
        self.checksums
            .retain(|&g, _| n > 0 && g <= boundary);
        if n > 0 {
            let first_stale = ((n - 1) % GROUP_DATA_PAGES + 1) as usize;
            if first_stale < GROUP_DATA_PAGES as usize {
                let frame = self.checksum_frame(boundary)?;
                if frame.buf[first_stale * 8..].iter().any(|&b| b != 0) {
                    frame.buf[first_stale * 8..].fill(0);
                    frame.dirty = true;
                }
            }
        }
        Ok(())
    }

    /// Writes dirty checksum pages and flushes OS buffers to stable
    /// storage.
    pub fn sync(&mut self) -> io::Result<()> {
        let mut dirty: Vec<u64> = self
            .checksums
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&g, _)| g)
            .collect();
        dirty.sort_unstable();
        for group in dirty {
            let frame = self.checksums.get_mut(&group).expect("present");
            self.backend
                .write_at(checksum_phys_of(group) * PAGE_SIZE as u64, &frame.buf[..])?;
            frame.dirty = false;
            self.stats.checksum_writes += 1;
        }
        self.backend.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_pager_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn layout_maps_are_inverse() {
        for n in [0u64, 1, 2, 511, 512, 513, 1024, 1025, 100_000] {
            let phys = phys_pages_for_logical(n);
            assert_eq!(logical_pages_for_phys(phys), n, "n={n}");
        }
        // A trailing lone checksum page carries no data.
        assert_eq!(logical_pages_for_phys(1), 0);
        assert_eq!(logical_pages_for_phys(514), 512);
        // Physical positions: group 0 checksums at 0, data from 1.
        assert_eq!(phys_of(0), 1);
        assert_eq!(phys_of(511), 512);
        assert_eq!(phys_of(512), 514);
        assert_eq!(checksum_phys_of(1), 513);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let path = temp("roundtrip");
        let _c = Cleanup(path.clone());
        let mut pager = Pager::open(&path).expect("open");
        assert_eq!(pager.page_count(), 0);

        let mut page = zeroed_page();
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        pager.write_page(PageId(0), &page).expect("write");
        assert_eq!(pager.page_count(), 1);

        let got = pager.read_page(PageId(0)).expect("read");
        assert_eq!(got[0], 0xAB);
        assert_eq!(got[PAGE_SIZE - 1], 0xCD);
        assert_eq!(pager.stats().reads, 1);
        assert_eq!(pager.stats().writes, 1);
    }

    #[test]
    fn read_past_end_is_zero_and_free() {
        let path = temp("past_end");
        let _c = Cleanup(path.clone());
        let mut pager = Pager::open(&path).expect("open");
        let got = pager.read_page(PageId(7)).expect("read");
        assert!(got.iter().all(|&b| b == 0));
        assert_eq!(pager.stats().reads, 0, "no physical read happened");
    }

    #[test]
    fn sparse_write_extends_with_zero_pages() {
        let path = temp("sparse");
        let _c = Cleanup(path.clone());
        let mut pager = Pager::open(&path).expect("open");
        let mut page = zeroed_page();
        page[5] = 9;
        pager.write_page(PageId(3), &page).expect("write");
        assert_eq!(pager.page_count(), 4);
        let middle = pager.read_page(PageId(1)).expect("read");
        assert!(middle.iter().all(|&b| b == 0));
    }

    #[test]
    fn reopen_preserves_contents() {
        let path = temp("reopen");
        let _c = Cleanup(path.clone());
        {
            let mut pager = Pager::open(&path).expect("open");
            let mut page = zeroed_page();
            page[100] = 42;
            pager.write_page(PageId(2), &page).expect("write");
            pager.sync().expect("sync");
        }
        let mut pager = Pager::open(&path).expect("reopen");
        assert_eq!(pager.page_count(), 3);
        assert_eq!(pager.read_page(PageId(2)).expect("read")[100], 42);
    }

    #[test]
    fn torn_tail_page_is_discarded_on_open() {
        let path = temp("torn_tail");
        let _c = Cleanup(path.clone());
        {
            let mut pager = Pager::open(&path).expect("open");
            let mut page = zeroed_page();
            page[0] = 1;
            pager.write_page(PageId(0), &page).expect("write");
            pager.sync().expect("sync");
        }
        // Simulate a crash that tore an extending write: a partial page
        // dangles past the last full page.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("append");
        f.write_all(&[0xEE; 100]).expect("write");
        drop(f);
        let mut pager = Pager::open(&path).expect("reopen");
        assert_eq!(pager.page_count(), 1);
        assert_eq!(pager.read_page(PageId(0)).expect("read")[0], 1);
    }

    #[test]
    fn corrupt_page_is_detected_not_returned() {
        let mut backend = MemBackend::new();
        let mut page = zeroed_page();
        page[17] = 0x55;
        {
            let mut pager = Pager::new(&mut backend).expect("new");
            pager.write_page(PageId(0), &page).expect("write");
            pager.sync().expect("sync");
        }
        // Flip one bit of the stored data page (physical page 1).
        let mut byte = [0u8; 1];
        let at = PAGE_SIZE as u64 + 17;
        backend.read_at(at, &mut byte).expect("read");
        byte[0] ^= 0x04;
        backend.write_at(at, &byte).expect("write");

        let mut pager = Pager::new(&mut backend).expect("reopen");
        let err = pager.read_page(PageId(0)).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mismatch = checksum_mismatch(&err).expect("typed mismatch");
        assert_eq!(mismatch.page, 0);
        assert_ne!(mismatch.expected, mismatch.actual);
        // The raw path still reads the corrupted bytes (for recovery).
        assert_eq!(pager.read_page_raw(PageId(0)).expect("raw")[17], 0x51);
    }

    #[test]
    fn truncate_logical_shrinks_and_allows_rewrite() {
        let mut backend = MemBackend::new();
        let mut pager = Pager::new(&mut backend).expect("new");
        for i in 0..5u64 {
            let mut page = zeroed_page();
            page[0] = i as u8 + 1;
            pager.write_page(PageId(i), &page).expect("write");
        }
        pager.sync().expect("sync");
        pager.truncate_logical(2).expect("truncate");
        assert_eq!(pager.page_count(), 2);
        assert_eq!(pager.read_page(PageId(1)).expect("read")[0], 2);
        assert!(pager.read_page(PageId(3)).expect("read").iter().all(|&b| b == 0));
        // Re-extending re-records digests for the re-created pages.
        let mut page = zeroed_page();
        page[0] = 0x77;
        pager.write_page(PageId(4), &page).expect("write");
        pager.sync().expect("sync");
        assert_eq!(pager.read_page(PageId(4)).expect("read")[0], 0x77);
        assert!(pager.read_page(PageId(2)).expect("read").iter().all(|&b| b == 0));
    }

    #[test]
    fn checksums_survive_reopen_across_groups() {
        let path = temp("groups");
        let _c = Cleanup(path.clone());
        {
            let mut pager = Pager::open(&path).expect("open");
            let mut page = zeroed_page();
            page[9] = 0x33;
            // Logical 600 lives in group 1 (slots 512..1024).
            pager.write_page(PageId(600), &page).expect("write");
            pager.sync().expect("sync");
        }
        let mut pager = Pager::open(&path).expect("reopen");
        assert_eq!(pager.page_count(), 601);
        assert_eq!(pager.read_page(PageId(600)).expect("read")[9], 0x33);
        assert!(pager.read_page(PageId(100)).expect("read").iter().all(|&b| b == 0));
        assert!(pager.stats().checksum_reads >= 1);
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
