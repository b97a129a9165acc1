//! Page caches over a [`Pager`], with CLOCK replacement.
//!
//! This is what turns the paper's memory axis (Fig. 11) into real
//! behaviour: a mining run against disk-backed structures sees hits while
//! its working set fits the cache and physical reads once it does not.
//!
//! Two caches share one replacement core:
//!
//! * [`PageCache`] — a private write-back cache owned by one handle (the
//!   deployment writer, the heap files, standalone readers);
//! * `SharedPages` — a read-only cache of verified, immutable slice
//!   pages that every snapshot reader of one deployment shares (see the
//!   isolation protocol in [`crate::snapshot`]).  Readers reach it through
//!   a `SharedView`, which keeps its own pager, so every physical read
//!   is still verified against its digest by the reader that made it.

use crate::backend::{FileBackend, StorageBackend};
use crate::pager::{zeroed_page, PageBuf, PageId, Pager, PagerStats, PAGE_SIZE};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from memory.
    pub hits: u64,
    /// Requests that required a physical read.
    pub misses: u64,
    /// Pages evicted (dirty evictions force a physical write).
    pub evictions: u64,
}

/// Hashes a [`PageId`] with one multiply.  Page ids are dense numbers
/// this crate assigns, so SipHash's resistance to crafted keys buys
/// nothing, and its cost shows on the per-page lookups of every count.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A map keyed by page id.
type PageMap<V> = HashMap<PageId, V, BuildHasherDefault<PageIdHasher>>;

struct Slot<V> {
    id: PageId,
    value: V,
    referenced: bool,
}

/// CLOCK (second-chance) replacement over at most `capacity` slots.  A
/// hit sets the slot's reference bit; eviction advances a hand past
/// referenced slots, clearing their bits, to the first unreferenced one.
/// Each insertion costs amortised O(1), where scanning every frame for
/// the least recent stamp cost O(capacity).
struct Clock<V> {
    map: PageMap<usize>,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    hand: usize,
    capacity: usize,
}

impl<V> Clock<V> {
    fn new(capacity: usize) -> Self {
        Clock {
            map: PageMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            capacity: capacity.max(1),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_full(&self) -> bool {
        self.map.len() >= self.capacity
    }

    /// The slot of `id`, without marking it referenced.
    fn slot(&mut self, id: PageId) -> Option<&mut Slot<V>> {
        let &i = self.map.get(&id)?;
        Some(self.slots[i].as_mut().expect("mapped slot is occupied"))
    }

    /// The value of `id`, if present, leaving its reference bit alone.
    fn peek(&self, id: PageId) -> Option<&V> {
        let &i = self.map.get(&id)?;
        self.slots[i].as_ref().map(|slot| &slot.value)
    }

    /// The value of `id`, marking it referenced.
    fn get(&mut self, id: PageId) -> Option<&mut V> {
        let slot = self.slot(id)?;
        slot.referenced = true;
        Some(&mut slot.value)
    }

    /// Inserts `id`, which must be absent, into a free slot.  The caller
    /// makes room first with [`Clock::evict`].
    fn insert(&mut self, id: PageId, value: V) {
        let slot = Some(Slot {
            id,
            value,
            referenced: false,
        });
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(id, i);
    }

    fn take(&mut self, i: usize) -> (PageId, V) {
        let slot = self.slots[i].take().expect("occupied slot");
        self.map.remove(&slot.id);
        self.free.push(i);
        (slot.id, slot.value)
    }

    fn remove(&mut self, id: PageId) -> Option<V> {
        let i = *self.map.get(&id)?;
        Some(self.take(i).1)
    }

    /// Removes the entry the hand selects (`None` when empty).
    fn evict(&mut self) -> Option<(PageId, V)> {
        if self.map.is_empty() {
            return None;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let i = self.hand;
            self.hand += 1;
            match &mut self.slots[i] {
                Some(slot) if slot.referenced => slot.referenced = false,
                Some(_) => return Some(self.take(i)),
                None => {}
            }
        }
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (PageId, &mut V)> {
        self.slots
            .iter_mut()
            .flatten()
            .map(|slot| (slot.id, &mut slot.value))
    }
}

struct Frame {
    buf: PageBuf,
    dirty: bool,
}

/// A private write-back page cache with a fixed capacity in pages.
pub struct PageCache<B: StorageBackend = FileBackend> {
    pager: Pager<B>,
    frames: Clock<Frame>,
    stats: CacheStats,
}

impl<B: StorageBackend> PageCache<B> {
    /// Wraps a pager with a cache of `capacity` pages (min 1).
    pub fn new(pager: Pager<B>, capacity: usize) -> Self {
        PageCache {
            pager,
            frames: Clock::new(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Cache capacity in pages.
    pub fn capacity(&self) -> usize {
        self.frames.capacity
    }

    /// Cache counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Physical I/O counters of the underlying pager.
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.stats()
    }

    /// Number of pages in the backing file.
    pub fn page_count(&self) -> u64 {
        self.pager.page_count()
    }

    /// The resident frame of `id`, reading it in (and evicting, writing
    /// back a dirty victim) on a miss.
    fn frame(&mut self, id: PageId) -> io::Result<&mut Frame> {
        if self.frames.get(id).is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            while self.frames.is_full() {
                let (victim, frame) = self.frames.evict().expect("full cache");
                if frame.dirty {
                    self.pager.write_page(victim, &frame.buf)?;
                }
                self.stats.evictions += 1;
            }
            let buf = self.pager.read_page(id)?;
            self.frames.insert(id, Frame { buf, dirty: false });
        }
        Ok(&mut self.frames.slot(id).expect("resident").value)
    }

    /// Reads bytes from a page through the cache.
    ///
    /// # Panics
    /// Panics if `offset + out.len()` exceeds the page size.
    pub fn read_at(&mut self, id: PageId, offset: usize, out: &mut [u8]) -> io::Result<()> {
        assert!(
            offset + out.len() <= PAGE_SIZE,
            "read crosses page boundary"
        );
        let frame = self.frame(id)?;
        out.copy_from_slice(&frame.buf[offset..offset + out.len()]);
        Ok(())
    }

    /// Writes bytes into a page through the cache (write-back).
    ///
    /// # Panics
    /// Panics if `offset + data.len()` exceeds the page size.
    pub fn write_at(&mut self, id: PageId, offset: usize, data: &[u8]) -> io::Result<()> {
        assert!(
            offset + data.len() <= PAGE_SIZE,
            "write crosses page boundary"
        );
        let frame = self.frame(id)?;
        frame.buf[offset..offset + data.len()].copy_from_slice(data);
        frame.dirty = true;
        Ok(())
    }

    /// Runs a closure over a page's bytes without copying them out.
    pub fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> io::Result<R> {
        Ok(f(&self.frame(id)?.buf))
    }

    /// The resident frame of `id`, if any, without reading it in or
    /// counting a hit: several pages can be borrowed at once this way.
    pub fn peek(&self, id: PageId) -> Option<&PageBuf> {
        self.frames.peek(id).map(|frame| &frame.buf)
    }

    /// Batched fetch: makes every page in `ids` resident (in order), so
    /// subsequent [`PageCache::with_page`] calls on them are guaranteed
    /// hits.  Only sound as a batch when `ids.len() < capacity`; with a
    /// smaller cache the early pages may be evicted again and the caller
    /// degrades to page-at-a-time residency (still correct, just thrashy).
    pub fn prefetch(&mut self, ids: &[PageId]) -> io::Result<()> {
        for &id in ids {
            self.frame(id)?;
        }
        Ok(())
    }

    /// Writes all dirty pages back and syncs the file.
    pub fn flush(&mut self) -> io::Result<()> {
        let mut dirty: Vec<PageId> = self
            .frames
            .iter_mut()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| id)
            .collect();
        dirty.sort_unstable();
        for id in dirty {
            let frame = &mut self.frames.slot(id).expect("present").value;
            self.pager.write_page(id, &frame.buf)?;
            frame.dirty = false;
        }
        self.pager.sync()
    }
}

impl<B: StorageBackend> Drop for PageCache<B> {
    fn drop(&mut self) {
        // Best-effort write-back; errors on drop cannot be reported.
        let _ = self.flush();
    }
}

/// Counters of a deployment's shared slice-page cache, cumulative over
/// every generation it has started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Capacity in pages.
    pub capacity: usize,
    /// Pages resident in the current generation.
    pub resident: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a reader's physical read.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Pages dropped because a commit appended rows to their chunk.
    pub dropped: u64,
    /// Generations started: one at open, one more per writer heal,
    /// compaction, fold or file reset.
    pub generations: u64,
}

#[derive(Default)]
struct SharedCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    dropped: AtomicU64,
    generations: AtomicU64,
}

/// A bounded cache of verified, immutable pages of one slice file
/// generation, shared by every snapshot reader of a deployment.
///
/// Pages are handed out as `Arc`s and never mutated: a page whose bytes
/// may have changed is dropped ([`SharedPages::drop_pages`]) rather than
/// updated, and a reader that still holds the old `Arc` keeps the bytes
/// it verified.  Replacement is CLOCK, as in [`PageCache`].
pub(crate) struct SharedPages {
    pages: Mutex<Clock<Arc<PageBuf>>>,
    capacity: usize,
    counters: Arc<SharedCounters>,
}

impl SharedPages {
    /// An empty cache of `capacity` pages (min 1): the first generation.
    pub fn new(capacity: usize) -> Self {
        let counters = Arc::new(SharedCounters::default());
        counters.generations.store(1, Ordering::Relaxed);
        let capacity = capacity.max(1);
        SharedPages {
            pages: Mutex::new(Clock::new(capacity)),
            capacity,
            counters,
        }
    }

    /// An empty cache of the same capacity for the next file generation,
    /// carrying this one's cumulative counters.
    pub fn next_generation(&self) -> Self {
        self.counters.generations.fetch_add(1, Ordering::Relaxed);
        SharedPages {
            pages: Mutex::new(Clock::new(self.capacity)),
            capacity: self.capacity,
            counters: Arc::clone(&self.counters),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Clock<Arc<PageBuf>>> {
        self.pages.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes onto `held`, in order, the resident page of every id in
    /// `ids` below `end`, under one lock.  An id it finds no page for gets
    /// `placeholder` and its position goes to `missing`.  Returns how many
    /// resident pages it pushed.
    fn hold_resident(
        &self,
        ids: &[PageId],
        end: u64,
        placeholder: &Arc<PageBuf>,
        held: &mut Vec<Arc<PageBuf>>,
        missing: &mut Vec<usize>,
    ) -> u64 {
        let mut found = 0;
        {
            let mut pages = self.lock();
            for (i, &id) in ids.iter().enumerate() {
                let page = if id.0 < end { pages.get(id) } else { None };
                match page {
                    Some(page) => {
                        held.push(Arc::clone(page));
                        found += 1;
                    }
                    None => {
                        held.push(Arc::clone(placeholder));
                        missing.push(i);
                    }
                }
            }
        }
        self.counters.hits.fetch_add(found, Ordering::Relaxed);
        found
    }

    /// The cached page `id`, if resident.
    fn lookup(&self, id: PageId) -> Option<Arc<PageBuf>> {
        let page = self.lock().get(id).map(|p| Arc::clone(p));
        let counter = match page {
            Some(_) => &self.counters.hits,
            None => &self.counters.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        page
    }

    /// Inserts a freshly verified page and returns the resident copy (an
    /// identical page another reader inserted first wins), and whether a
    /// page was evicted to make room.
    fn insert(&self, id: PageId, page: Arc<PageBuf>) -> (Arc<PageBuf>, bool) {
        let mut pages = self.lock();
        if let Some(resident) = pages.get(id) {
            return (Arc::clone(resident), false);
        }
        let evicted = pages.is_full();
        if evicted {
            pages.evict();
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        pages.insert(id, Arc::clone(&page));
        (page, evicted)
    }

    /// Drops every cached page whose logical id lies in `ids` (the pages a
    /// commit may have written).  Returns how many were resident.
    pub fn drop_pages(&self, ids: Range<u64>) -> u64 {
        let mut pages = self.lock();
        let victims: Vec<PageId> = if ids.end - ids.start > pages.len() as u64 {
            pages
                .map
                .keys()
                .copied()
                .filter(|id| ids.contains(&id.0))
                .collect()
        } else {
            ids.map(PageId)
                .filter(|id| pages.map.contains_key(id))
                .collect()
        };
        for &id in &victims {
            pages.remove(id);
        }
        let n = victims.len() as u64;
        self.counters.dropped.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Cumulative counters, with this generation's residency.
    pub fn stats(&self) -> SharedCacheStats {
        let resident = self.lock().len();
        let c = &self.counters;
        SharedCacheStats {
            capacity: self.capacity,
            resident,
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
            generations: c.generations.load(Ordering::Relaxed),
        }
    }
}

/// One reader's window onto a [`SharedPages`] cache: its own pager (so a
/// miss is read and digest-verified by this reader, stale-digest re-read
/// included), the `Arc`s of the pages it is using right now, and its own
/// hit/miss/eviction counters.
///
/// A page at or past this reader's logical end reads as zeros and is
/// never inserted: a newer commit may since have materialised it, and a
/// zero page in the shared cache would hide that commit's bits from
/// newer readers.
pub(crate) struct SharedView<B: StorageBackend = FileBackend> {
    pager: Pager<B>,
    shared: Arc<SharedPages>,
    /// The pages of the current chunk of the current call, in the order
    /// [`SharedView::hold`] named them; cleared per chunk and per call, so
    /// a reader pins no more than one chunk's pages.
    held: Vec<Arc<PageBuf>>,
    /// Scratch list of the positions in `held` a hold found no shared
    /// page for.
    missing: Vec<usize>,
    /// What every page past this reader's end reads as.
    zero: Arc<PageBuf>,
    stats: CacheStats,
}

impl<B: StorageBackend> SharedView<B> {
    /// A view of `shared` that reads misses through `pager`.
    pub fn new(pager: Pager<B>, shared: Arc<SharedPages>) -> Self {
        SharedView {
            pager,
            shared,
            held: Vec::new(),
            missing: Vec::new(),
            zero: Arc::new(zeroed_page()),
            stats: CacheStats::default(),
        }
    }

    /// This reader's own hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Physical I/O counters of this reader's pager.
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.stats()
    }

    /// The page `id`: the shared copy, or a verified read through this
    /// reader's pager that is then shared.
    fn fetch(&mut self, id: PageId) -> io::Result<Arc<PageBuf>> {
        if id.0 >= self.pager.page_count() {
            self.stats.misses += 1;
            return Ok(Arc::clone(&self.zero));
        }
        if let Some(page) = self.shared.lookup(id) {
            self.stats.hits += 1;
            return Ok(page);
        }
        self.stats.misses += 1;
        let (page, evicted) = self.shared.insert(id, Arc::new(self.pager.read_page(id)?));
        self.stats.evictions += u64::from(evicted);
        Ok(page)
    }

    /// Runs a closure over a page's bytes without copying them out.
    pub fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> io::Result<R> {
        let page = self.fetch(id)?;
        Ok(f(&page))
    }

    /// Releases the pages held so far, then holds every page in `ids`
    /// (the resident ones under one lock): [`SharedView::held`]`(i)` is
    /// the page of `ids[i]` until the next hold or release.
    pub fn hold(&mut self, ids: &[PageId]) -> io::Result<()> {
        self.held.clear();
        self.missing.clear();
        self.stats.hits += self.shared.hold_resident(
            ids,
            self.pager.page_count(),
            &self.zero,
            &mut self.held,
            &mut self.missing,
        );
        for k in 0..self.missing.len() {
            let i = self.missing[k];
            self.held[i] = self.fetch(ids[i])?;
        }
        Ok(())
    }

    /// The page of the `i`-th id of the last [`SharedView::hold`].
    pub fn held(&self, i: usize) -> &PageBuf {
        &self.held[i]
    }

    /// Releases every held page (the shared cache keeps its own `Arc`s).
    pub fn release(&mut self) {
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_cache_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn cache(name: &str, capacity: usize) -> (PageCache, Cleanup) {
        let path = temp(name);
        let cleanup = Cleanup(path.clone());
        let pager = Pager::open(&path).expect("open");
        (PageCache::new(pager, capacity), cleanup)
    }

    #[test]
    fn read_own_writes() {
        let (mut c, _g) = cache("rw", 4);
        c.write_at(PageId(0), 10, b"hello").expect("write");
        let mut buf = [0u8; 5];
        c.read_at(PageId(0), 10, &mut buf).expect("read");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (mut c, _g) = cache("hitmiss", 4);
        let mut buf = [0u8; 1];
        c.read_at(PageId(0), 0, &mut buf).expect("read");
        c.read_at(PageId(0), 1, &mut buf).expect("read");
        c.read_at(PageId(1), 0, &mut buf).expect("read");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut c, _g) = cache("lru", 2);
        let mut buf = [0u8; 1];
        c.read_at(PageId(0), 0, &mut buf).expect("read"); // miss
        c.read_at(PageId(1), 0, &mut buf).expect("read"); // miss
        c.read_at(PageId(0), 0, &mut buf).expect("read"); // hit, 0 is MRU
        c.read_at(PageId(2), 0, &mut buf).expect("read"); // miss, evicts 1
        assert_eq!(c.stats().evictions, 1);
        c.read_at(PageId(0), 0, &mut buf).expect("read"); // still cached
        assert_eq!(c.stats().hits, 2);
        c.read_at(PageId(1), 0, &mut buf).expect("read"); // miss again
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn dirty_eviction_persists_data() {
        let (mut c, _g) = cache("dirty", 1);
        c.write_at(PageId(0), 0, b"persist-me").expect("write");
        // Touching another page evicts page 0, forcing the write-back.
        let mut buf = [0u8; 1];
        c.read_at(PageId(5), 0, &mut buf).expect("read");
        assert_eq!(c.pager_stats().writes, 1);
        // Reading page 0 again fetches the persisted bytes.
        let mut got = [0u8; 10];
        c.read_at(PageId(0), 0, &mut got).expect("read");
        assert_eq!(&got, b"persist-me");
    }

    #[test]
    fn flush_then_reopen() {
        let path = temp("flush_reopen");
        let _g = Cleanup(path.clone());
        {
            let pager = Pager::open(&path).expect("open");
            let mut c = PageCache::new(pager, 4);
            c.write_at(PageId(1), 0, b"durable").expect("write");
            c.flush().expect("flush");
        }
        let pager = Pager::open(&path).expect("reopen");
        let mut c = PageCache::new(pager, 4);
        let mut got = [0u8; 7];
        c.read_at(PageId(1), 0, &mut got).expect("read");
        assert_eq!(&got, b"durable");
    }

    #[test]
    fn clock_gives_referenced_pages_a_second_chance() {
        let (mut c, _g) = cache("clock", 3);
        let mut buf = [0u8; 1];
        for id in [0, 1, 2] {
            c.read_at(PageId(id), 0, &mut buf).expect("read");
        }
        c.read_at(PageId(0), 0, &mut buf).expect("hit sets 0's bit");
        c.read_at(PageId(3), 0, &mut buf)
            .expect("evicts 1, spares 0");
        c.read_at(PageId(4), 0, &mut buf).expect("evicts 2");
        assert_eq!(c.stats().evictions, 2);
        let misses = c.stats().misses;
        c.read_at(PageId(0), 0, &mut buf).expect("read");
        assert_eq!(c.stats().misses, misses, "page 0 survived both evictions");
        c.read_at(PageId(1), 0, &mut buf).expect("read");
        assert_eq!(c.stats().misses, misses + 1, "page 1 was the first victim");
    }

    fn shared_file(name: &str, pages: u64) -> (std::path::PathBuf, Cleanup) {
        let path = temp(name);
        let cleanup = Cleanup(path.clone());
        let mut pager = Pager::open(&path).expect("open");
        for id in 0..pages {
            let mut page = zeroed_page();
            page[0] = id as u8 + 1;
            pager.write_page(PageId(id), &page).expect("write");
        }
        pager.sync().expect("sync");
        (path, cleanup)
    }

    #[test]
    fn shared_pages_are_read_once_across_views() {
        let (path, _g) = shared_file("shared_once", 4);
        let shared = Arc::new(SharedPages::new(8));
        let mut a = SharedView::new(Pager::open(&path).expect("open"), Arc::clone(&shared));
        let mut b = SharedView::new(Pager::open(&path).expect("open"), Arc::clone(&shared));
        for id in 0..4 {
            assert_eq!(a.with_page(PageId(id), |p| p[0]).expect("a"), id as u8 + 1);
        }
        a.release();
        for id in 0..4 {
            assert_eq!(b.with_page(PageId(id), |p| p[0]).expect("b"), id as u8 + 1);
        }
        assert_eq!(a.pager_stats().reads, 4);
        assert_eq!(b.pager_stats().reads, 0, "b reads only shared pages");
        assert_eq!((b.stats().hits, b.stats().misses), (4, 0));
        let s = shared.stats();
        assert_eq!((s.resident, s.hits, s.misses), (4, 4, 4));
    }

    #[test]
    fn shared_pages_past_the_end_read_zero_and_stay_out() {
        let (path, _g) = shared_file("shared_end", 2);
        let shared = Arc::new(SharedPages::new(8));
        let mut v = SharedView::new(Pager::open(&path).expect("open"), Arc::clone(&shared));
        assert!(v
            .with_page(PageId(5), |p| p.iter().all(|&b| b == 0))
            .expect("end"));
        assert_eq!(shared.stats().resident, 0, "a zero page is never shared");
        assert_eq!(v.pager_stats().reads, 0);
    }

    #[test]
    fn shared_pages_evict_drop_and_renew() {
        let (path, _g) = shared_file("shared_evict", 6);
        let shared = Arc::new(SharedPages::new(3));
        let mut v = SharedView::new(Pager::open(&path).expect("open"), Arc::clone(&shared));
        for id in 0..6 {
            v.with_page(PageId(id), |_| ()).expect("read");
        }
        v.release();
        let s = shared.stats();
        assert_eq!((s.resident, s.evictions), (3, 3));
        assert_eq!(v.stats().evictions, 3);
        assert_eq!(shared.drop_pages(4..100), 2, "pages 4 and 5 were resident");
        assert_eq!(shared.stats().resident, 1);
        let next = shared.next_generation();
        let s = next.stats();
        assert_eq!(
            (s.resident, s.capacity, s.generations, s.dropped),
            (0, 3, 2, 2)
        );
    }

    #[test]
    #[should_panic(expected = "crosses page boundary")]
    fn cross_page_read_panics() {
        let (mut c, _g) = cache("cross", 2);
        let mut buf = [0u8; 8];
        c.read_at(PageId(0), PAGE_SIZE - 4, &mut buf).expect("read");
    }
}
