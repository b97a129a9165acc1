//! The on-disk BBS slice file.
//!
//! The paper stores the signature file "as slices" so that `CountItemSet`
//! reads only the columns a query selects.  A literal slice-major layout
//! would make insertion O(m) page writes (every slice grows by one bit per
//! transaction), so this file uses the standard compromise, a
//! **chunk-major** layout: rows are grouped into chunks of `32768`
//! (= 4096·8) rows, and within a chunk each slice owns one whole page:
//!
//! ```text
//! page 0                  header (magic, width, rows)
//! page 1 + c·m + j        bits of slice j for rows [c·32768, (c+1)·32768)
//! ```
//!
//! Reading slice `j` touches `ceil(rows / 32768)` pages at stride `m`;
//! appending a transaction performs one read-modify-write per set bit, all
//! within the current chunk's pages (which stay hot in the cache).
//!
//! # Counting path
//!
//! One executor, [`SliceFile::count_selected`], answers every count: a
//! batch of queries sharing an optional projection prefix and an optional
//! tombstone mask.  Per-op counting is a batch of one.  It walks the
//! chunks in row order and, per chunk:
//!
//! 1. **Resolves each distinct selected slice once into an operand
//!    table.**  An operand is either the slice's pinned hot words or its
//!    page, held for the chunk and read in place as little-endian `u64`
//!    words ([`crate::pager::Page`] is 8-byte aligned).  Only where that
//!    cannot be done for every page of the chunk (a private cache too
//!    small to keep them all resident, a big-endian target) are the pages
//!    decoded into per-chunk segments instead.  The
//!    union, its multiplicities and the slice → operand map are
//!    width-indexed arrays reset in `O(|union|)`; nothing is sorted or
//!    hashed.
//! 2. **Trims every operation to the words the chunk occupies**:
//!    `PAGE_WORDS` on a full chunk, `words_for(within)` on the boundary
//!    chunk, whose last partial word takes the snapshot clamp.
//! 3. **Hoists the shared prefix** (Ramp-style bit-vector projection): the
//!    caller's prefix, every slice all active queries select, and the dead
//!    mask are ANDed once per chunk into one accumulator, which is one more
//!    operand.  No per-query accumulator is copied or written.
//! 4. **Calls the fused kernel once per query**:
//!    `ops_simd::and_all_count_bounded` over the query's operands, then
//!    applies the per-chunk τ early exit on the running total.
//!
//! Slices that keep being selected are promoted into a pinned **hot-slice
//! cache** of decoded `u64` words (invalidated on append).
//!
//! All read-side state (page source, hot slices, scratch buffers) lives
//! behind a `Mutex`, so counting needs only `&self` — shared references
//! can count concurrently, and independent readers over the same file get
//! genuine parallelism (see `DiskBbs::counter`).
//!
//! The page source is either a private write-back [`PageCache`] (the
//! writer, standalone readers) or, for a deployment's snapshot readers, a
//! `SharedView` of the deployment's one `SharedPages` cache (see
//! `SliceFile::open_shared` and the isolation protocol in
//! [`crate::snapshot`]).

use crate::backend::{FileBackend, StorageBackend};
use crate::cache::{CacheStats, PageCache, SharedPages, SharedView};
use crate::del::DeadMask;
use crate::pager::{
    fnv1a64_extend, zeroed_page, ChecksumMismatch, PageBuf, PageId, Pager, PagerStats, FNV_OFFSET,
    PAGE_SIZE,
};
use bbs_bitslice::{ops, ops_simd, BitVec};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

const MAGIC: u64 = 0x4242_5353_4c49_4345; // "BBSSLICE"

/// Reads the width field of an existing slice file's header page without
/// opening the file as a deployment (`Ok(None)` = absent, empty, or not a
/// slice file).  This is how reopen paths adopt the on-disk width after a
/// fold halved it, instead of failing the width check against a stale
/// configured value.
pub fn header_width(path: &Path) -> io::Result<Option<usize>> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut head = [0u8; 16];
    let off = crate::pager::phys_of(0) * PAGE_SIZE as u64;
    if f.seek(SeekFrom::Start(off)).is_err() {
        return Ok(None);
    }
    match f.read_exact(&mut head) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let magic = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
    let width = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
    if magic != MAGIC || width == 0 || width >= u32::MAX as u64 {
        return Ok(None);
    }
    Ok(Some(width as usize))
}
/// Rows per chunk: one page of bits.
pub const CHUNK_ROWS: usize = PAGE_SIZE * 8;
/// `u64` words per page.
pub const PAGE_WORDS: usize = PAGE_SIZE / 8;

/// How many times a slice must be selected before it is pinned.
const PROMOTE_AFTER: u32 = 3;
/// Maximum number of pinned (fully decoded) hot slices.
const HOT_SLICE_LIMIT: usize = 16;

/// Sentinel of the width-indexed position maps: not present.
const NONE: u32 = u32::MAX;

/// Counters of the pinned hot-slice cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Slices currently pinned (decoded to words).
    pub pinned: usize,
    /// Selected-slice lookups served from pinned words.
    pub hits: u64,
    /// Slices decoded for pinning.
    pub decodes: u64,
    /// Times the pinned set was invalidated by an append.
    pub invalidations: u64,
}

/// The pinned hot-slice cache: decoded `u64` words for the most-selected
/// slices.  Appends invalidate the pinned words (a pinned slice would
/// otherwise go stale); selection counts survive, so the working set is
/// re-promoted quickly once counting resumes.
///
/// # Invalidation contract
///
/// * Every [`SliceFile::append_row`] call invalidates the pinned set
///   **before** any bit of the new row is written, and it does so **at
///   most once**: `invalidations` increments by exactly 1 when anything
///   was pinned and by 0 when the set was already empty (consecutive
///   appends with no interleaved counting pay a single invalidation).
/// * Counting never observes a pinned slice that predates an append:
///   within one `SliceFile`, appends take `&mut self`, so no count can
///   interleave with the invalidate-then-write sequence; across
///   independent readers over the same path, pinned words are decoded at
///   the reader's own row count and the snapshot clamp (see
///   [`mask_from`]) discards any newer bits.
struct HotSlices {
    capacity: usize,
    /// Width-indexed selection counts.
    select_counts: Vec<u32>,
    /// Width-indexed position in `pinned` (`NONE` = not pinned).
    index: Vec<u32>,
    /// The pinned slices with their words (`words_for(rows)` of them).
    pinned: Vec<(usize, Vec<u64>)>,
    hits: u64,
    decodes: u64,
    invalidations: u64,
}

impl HotSlices {
    fn new(capacity: usize, width: usize) -> Self {
        HotSlices {
            capacity,
            select_counts: vec![0; width],
            index: vec![NONE; width],
            pinned: Vec::new(),
            hits: 0,
            decodes: 0,
            invalidations: 0,
        }
    }

    /// The pinned words of `slice`, if it is pinned.
    fn get(&self, slice: usize) -> Option<&[u64]> {
        let i = self.index[slice];
        (i != NONE).then(|| self.pinned[i as usize].1.as_slice())
    }

    fn invalidate(&mut self) {
        if !self.pinned.is_empty() {
            for (s, _) in self.pinned.drain(..) {
                self.index[s] = NONE;
            }
            self.invalidations += 1;
        }
    }

    fn stats(&self) -> HotStats {
        HotStats {
            pinned: self.pinned.len(),
            hits: self.hits,
            decodes: self.decodes,
            invalidations: self.invalidations,
        }
    }
}

/// Overwrites `seg` with the first `n` little-endian words of `page`.
fn decode_into(seg: &mut Vec<u64>, page: &[u8; PAGE_SIZE], n: usize) {
    seg.clear();
    seg.extend(
        page.chunks_exact(8)
            .take(n)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))),
    );
}

/// Where a slice file's pages come from.
enum Pages<B: StorageBackend> {
    /// A private write-back cache: the writer and standalone readers.
    Private(PageCache<B>),
    /// A deployment's shared read cache: snapshot readers.
    Shared(SharedView<B>),
}

impl<B: StorageBackend> Pages<B> {
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> io::Result<R> {
        match self {
            Pages::Private(c) => c.with_page(id, f),
            Pages::Shared(v) => v.with_page(id, f),
        }
    }

    /// The page of `id`, the `j`-th id of the last [`Pages::hold`], when
    /// it can be borrowed: always from a shared view, while resident from
    /// a private cache.
    fn page(&self, j: usize, id: PageId) -> Option<&PageBuf> {
        match self {
            Pages::Private(c) => c.peek(id),
            Pages::Shared(v) => Some(v.held(j)),
        }
    }

    /// Makes the pages `ids` of one chunk readable through
    /// [`Pages::operand`]: a shared view holds them; a private cache
    /// fetches them in one row-order pass when they fit.  Every page is
    /// then lent in place, or none is: when one cannot be (a private cache
    /// too small for the chunk's pages, a target that cannot read page
    /// bytes as words), the first `n` words of each are decoded into
    /// `segs`, since reading one page in may evict another.
    fn hold(&mut self, ids: &[PageId], n: usize, segs: &mut Vec<Vec<u64>>) -> io::Result<()> {
        match self {
            Pages::Private(c) if ids.len() < c.capacity() => c.prefetch(ids)?,
            Pages::Private(_) => {}
            Pages::Shared(v) => v.hold(ids)?,
        }
        let lent = ids.iter().enumerate().all(|(j, &id)| {
            self.page(j, id)
                .and_then(|page| ops_simd::le_words(&page[..]))
                .is_some()
        });
        if !lent {
            if segs.len() < ids.len() {
                segs.resize_with(ids.len(), Vec::new);
            }
            for (seg, &id) in segs.iter_mut().zip(ids) {
                self.with_page(id, |page| decode_into(seg, page, n))?;
            }
        }
        Ok(())
    }

    /// The first `n` words of `id`, the `j`-th page of the last
    /// [`Pages::hold`]: in place when it can be lent, else its segment.
    fn operand<'a>(&'a self, j: usize, id: PageId, n: usize, segs: &'a [Vec<u64>]) -> &'a [u64] {
        match self
            .page(j, id)
            .and_then(|page| ops_simd::le_words(&page[..]))
        {
            Some(words) => &words[..n],
            None => &segs[j][..n],
        }
    }

    /// Drops the shared pages a finished call still holds.
    fn release(&mut self) {
        if let Pages::Shared(v) = self {
            v.release();
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            Pages::Private(c) => c.stats(),
            Pages::Shared(v) => v.stats(),
        }
    }

    fn pager_stats(&self) -> PagerStats {
        match self {
            Pages::Private(c) => c.pager_stats(),
            Pages::Shared(v) => v.pager_stats(),
        }
    }

    /// The write-back cache; a shared-cache reader is read-only.
    fn writable(&mut self) -> io::Result<&mut PageCache<B>> {
        match self {
            Pages::Private(c) => Ok(c),
            Pages::Shared(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "slice file opened over a shared read cache is read-only",
            )),
        }
    }
}

/// All mutable read-side state: the page source, the hot-slice cache and
/// the executor's reusable scratch.  Guarded by one mutex in
/// [`SliceFile`] so that counting works on `&self`.
///
/// The width-indexed arrays (`mult`, `pos`, `pfx`) are non-default only
/// at the slices `union` names, which is what lets a union rebuild reset
/// them in `O(|union|)` instead of `O(width)`.
struct ReadState<B: StorageBackend> {
    cache: Pages<B>,
    hot: HotSlices,
    /// Width-indexed number of active queries selecting each slice.
    mult: Vec<u32>,
    /// Width-indexed position of each slice in `union` (`NONE` = absent),
    /// which is also its row of the per-chunk operand table.
    pos: Vec<u32>,
    /// Width-indexed membership in the effective prefix.
    pfx: Vec<bool>,
    /// The distinct slices the prefix and the active queries select, in
    /// first-seen order.
    union: Vec<usize>,
    /// The effective prefix: the caller's prefix plus every slice all
    /// active queries select.
    eff_prefix: Vec<usize>,
    /// The current chunk's page ids of the union's non-pinned slices.
    ids: Vec<PageId>,
    /// Decoded page words for a chunk whose pages cannot be lent in place.
    segs: Vec<Vec<u64>>,
    /// The effective prefix's AND (with the dead mask) for one chunk.
    prefix_acc: Vec<u64>,
}

/// Zeroes every bit at position `>= rows` in a word buffer (the snapshot
/// clamp): a reader whose header said `rows = N` must never count bits a
/// newer append OR'd into the shared boundary pages after it opened.
fn mask_from(words: &mut [u64], rows: usize) {
    let whole = rows / 64;
    if whole < words.len() {
        let rem = rows % 64;
        if rem != 0 {
            words[whole] &= (1u64 << rem) - 1;
            words[whole + 1..].fill(0);
        } else {
            words[whole..].fill(0);
        }
    }
}

impl<B: StorageBackend> ReadState<B> {
    fn new(cache: Pages<B>, width: usize) -> Self {
        ReadState {
            cache,
            hot: HotSlices::new(HOT_SLICE_LIMIT, width),
            mult: vec![0; width],
            pos: vec![NONE; width],
            pfx: vec![false; width],
            union: Vec::new(),
            eff_prefix: Vec::new(),
            ids: Vec::new(),
            segs: Vec::new(),
            prefix_acc: Vec::new(),
        }
    }

    /// Decodes a whole slice into little-endian `u64` words (`words_for(rows)`
    /// of them) through the page cache, with bits `>= rows` masked off.
    fn decode_slice(&mut self, width: usize, rows: u64, slice: usize) -> io::Result<Vec<u64>> {
        let rows = rows as usize;
        let chunks = rows.div_ceil(CHUNK_ROWS);
        let mut words: Vec<u64> = Vec::with_capacity(chunks * PAGE_WORDS);
        for c in 0..chunks {
            let page = page_of(width, c as u64, slice);
            self.cache.with_page(page, |buf| {
                for w in buf.chunks_exact(8) {
                    words.push(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                }
            })?;
        }
        words.truncate(bbs_bitslice::words_for(rows));
        mask_from(&mut words, rows);
        Ok(words)
    }

    /// Bumps selection counts and pins newly hot slices (decoding them).
    fn promote(&mut self, width: usize, rows: u64, slices: &[usize]) -> io::Result<()> {
        // Once the pinned set is full no count bump can change it, so the
        // bookkeeping is pure overhead on every subsequent query — skip it.
        // After an append invalidates the pinned set, counting resumes from
        // the preserved counts and re-pins the proven hot slices at once.
        if self.hot.pinned.len() >= self.hot.capacity {
            return Ok(());
        }
        for &s in slices {
            let n = &mut self.hot.select_counts[s];
            *n += 1;
            if *n >= PROMOTE_AFTER
                && self.hot.pinned.len() < self.hot.capacity
                && self.hot.index[s] == NONE
            {
                let words = self.decode_slice(width, rows, s)?;
                self.hot.index[s] = self.hot.pinned.len() as u32;
                self.hot.pinned.push((s, words));
                self.hot.decodes += 1;
            }
        }
        Ok(())
    }

    /// The executor behind [`SliceFile::count_selected`] (see the module
    /// docs for its per-chunk steps).  `dead` is the tombstone bitmap and
    /// its number of set bits.
    fn count(
        &mut self,
        width: usize,
        rows: u64,
        prefix: &[usize],
        queries: &[(Vec<usize>, Option<u64>)],
        dead: Option<(&[u64], u64)>,
    ) -> io::Result<Vec<u64>> {
        let chunks = (rows as usize).div_ceil(CHUNK_ROWS) as u64;
        let live = rows - dead.map_or(0, |(_, deleted)| deleted);
        let mut totals = vec![0u64; queries.len()];
        let mut done = vec![false; queries.len()];
        let mut active = 0usize;
        if !prefix.is_empty() {
            self.promote(width, rows, prefix)?;
        }
        for (i, (slices, _)) in queries.iter().enumerate() {
            if prefix.is_empty() && slices.is_empty() {
                totals[i] = live;
                done[i] = true;
            } else if chunks == 0 {
                done[i] = true;
            } else {
                active += 1;
                if !slices.is_empty() {
                    self.promote(width, rows, slices)?;
                }
            }
        }
        if active == 0 {
            return Ok(totals);
        }
        let ReadState {
            cache,
            hot,
            mult,
            pos,
            pfx,
            union,
            eff_prefix,
            ids,
            segs,
            prefix_acc,
        } = self;
        // Pinned-word lookups one chunk serves: one per use, as if each
        // query and the prefix looked its slices up in turn.
        let mut chunk_hot_hits = 0u64;
        let mut stale = true;
        for c in 0..chunks {
            if stale {
                // Reset exactly the entries the previous union named (from
                // this call or the last one).
                for &s in union.iter() {
                    mult[s] = 0;
                    pos[s] = NONE;
                    pfx[s] = false;
                }
                union.clear();
                for (i, (slices, _)) in queries.iter().enumerate() {
                    if done[i] {
                        continue;
                    }
                    for &s in slices {
                        if pos[s] == NONE {
                            pos[s] = union.len() as u32;
                            union.push(s);
                        }
                        mult[s] += 1;
                    }
                }
                eff_prefix.clear();
                for &s in prefix {
                    if pos[s] == NONE {
                        pos[s] = union.len() as u32;
                        union.push(s);
                    }
                    if !pfx[s] {
                        pfx[s] = true;
                        eff_prefix.push(s);
                    }
                }
                // Hoist every slice all active queries select (`mult ==
                // active`: each query's slices are distinct, so it adds at
                // most 1).  It is then ANDed once per chunk, not once per
                // query.  A batch of one has nothing to share.
                if active >= 2 {
                    for &s in union.iter() {
                        if !pfx[s] && mult[s] as usize == active {
                            pfx[s] = true;
                            eff_prefix.push(s);
                        }
                    }
                }
                chunk_hot_hits = union
                    .iter()
                    .filter(|&&s| hot.get(s).is_some())
                    .map(|&s| if pfx[s] { 1 } else { u64::from(mult[s]) })
                    .sum();
                stale = false;
            }
            hot.hits += chunk_hot_hits;
            // Trim to the words the chunk occupies; on the boundary chunk
            // the last partial word keeps only rows `< rows` (the snapshot
            // clamp).
            let lo = (c as usize) * PAGE_WORDS;
            let within = rows as usize - (c as usize) * CHUNK_ROWS;
            let (n, full, tail) = if within >= CHUNK_ROWS {
                (PAGE_WORDS, PAGE_WORDS, 0)
            } else {
                let rem = within % 64;
                let tail = if rem == 0 { 0 } else { (1u64 << rem) - 1 };
                (bbs_bitslice::words_for(within), within / 64, tail)
            };
            ids.clear();
            ids.extend(
                union
                    .iter()
                    .filter(|&&s| hot.get(s).is_none())
                    .map(|&s| page_of(width, c, s)),
            );
            cache.hold(ids, n, segs)?;
            // The operand table, in union order (`pos` indexes it).
            let mut next_page = 0;
            let table: Vec<&[u64]> = union
                .iter()
                .map(|&s| match hot.get(s) {
                    Some(words) => &words[lo..lo + n],
                    None => {
                        next_page += 1;
                        cache.operand(next_page - 1, ids[next_page - 1], n, segs)
                    }
                })
                .collect();
            let operand = |s: usize| table[pos[s] as usize];
            // The projection: the effective prefix and the dead mask as one
            // operand, materialised only when it has two members or more.
            let prefix_op: Option<&[u64]> = match (dead, eff_prefix.as_slice()) {
                (None, []) => None,
                (None, [s]) => Some(operand(*s)),
                (dead, members) => {
                    prefix_acc.clear();
                    let rest = match dead {
                        // The live rows of this chunk: `!dead`, and live
                        // beyond the bitmap's tail.
                        Some((dead_words, _)) => {
                            prefix_acc.extend(
                                (lo..lo + n).map(|i| !dead_words.get(i).copied().unwrap_or(0)),
                            );
                            members
                        }
                        None => {
                            prefix_acc.extend_from_slice(operand(members[0]));
                            &members[1..]
                        }
                    };
                    for &s in rest {
                        ops::and_assign(prefix_acc, operand(s));
                    }
                    Some(prefix_acc.as_slice())
                }
            };
            let mut srcs: Vec<&[u64]> = Vec::new();
            for (i, (slices, tau)) in queries.iter().enumerate() {
                if done[i] {
                    continue;
                }
                srcs.clear();
                srcs.extend(prefix_op);
                srcs.extend(slices.iter().filter(|&&s| !pfx[s]).map(|&s| operand(s)));
                debug_assert!(!srcs.is_empty(), "an active query has an operand");
                let mut count = ops_simd::and_all_count_bounded(&srcs, full, None) as u64;
                if tail != 0 {
                    let last = srcs.iter().fold(tail, |w, src| w & src[full]);
                    count += u64::from(last.count_ones());
                }
                totals[i] += count;
                if let Some(tau) = tau {
                    // Every remaining chunk can contribute at most
                    // CHUNK_ROWS bits; once even that cannot reach tau, the
                    // exact count cannot either.  The returned bound never
                    // undercounts.
                    let bound = totals[i] + (chunks - 1 - c) * CHUNK_ROWS as u64;
                    if bound < *tau {
                        totals[i] = bound;
                        done[i] = true;
                        active -= 1;
                        stale = true;
                    }
                }
            }
            if active == 0 {
                break;
            }
        }
        Ok(totals)
    }
}

/// The locked read state of a [`SliceFile`]; dropping it releases the
/// shared pages the call held, so an idle reader pins none.
struct StateGuard<'a, B: StorageBackend>(MutexGuard<'a, ReadState<B>>);

impl<B: StorageBackend> std::ops::Deref for StateGuard<'_, B> {
    type Target = ReadState<B>;
    fn deref(&self) -> &ReadState<B> {
        &self.0
    }
}

impl<B: StorageBackend> std::ops::DerefMut for StateGuard<'_, B> {
    fn deref_mut(&mut self) -> &mut ReadState<B> {
        &mut self.0
    }
}

impl<B: StorageBackend> Drop for StateGuard<'_, B> {
    fn drop(&mut self) {
        self.0.cache.release();
    }
}

fn page_of(width: usize, chunk: u64, slice: usize) -> PageId {
    PageId(1 + chunk * width as u64 + slice as u64)
}

/// Logical ids of every slice page in the chunks that hold `rows`: the
/// only pages an append of those rows can write.
pub(crate) fn chunk_pages(width: usize, rows: Range<u64>) -> Range<u64> {
    if rows.is_empty() {
        return 0..0;
    }
    let first = rows.start / CHUNK_ROWS as u64;
    let last = (rows.end - 1) / CHUNK_ROWS as u64;
    page_of(width, first, 0).0..page_of(width, last + 1, 0).0
}

/// A durable, chunk-major bit-slice file.
///
/// Writes (`append_row`, `flush`) take `&mut self`; the counting path takes
/// `&self` and synchronises internally, so a shared reference suffices to
/// run `CountItemSet` queries (including from multiple threads, serialised
/// on this file's cache — use independent `SliceFile`s over the same path
/// for parallel reads).
pub struct SliceFile<B: StorageBackend = FileBackend> {
    read: Mutex<ReadState<B>>,
    width: usize,
    rows: u64,
}

impl SliceFile<FileBackend> {
    /// Opens (creating if absent) a slice file of signature width `width`.
    ///
    /// An existing file must have been created with the same width.
    pub fn open(path: &Path, width: usize, cache_pages: usize) -> io::Result<Self> {
        SliceFile::open_with(FileBackend::open(path)?, width, cache_pages, None)
    }
}

/// Clears the bits of rows `within..` from a boundary-chunk slice page,
/// reconstructing its committed content (committed bits are never lost to
/// a torn write because appends only OR bits in).
pub(crate) fn clear_uncommitted_bits(page: &mut [u8; PAGE_SIZE], within: u64) {
    let whole = (within / 8) as usize;
    let rem = (within % 8) as u32;
    if rem == 0 {
        page[whole..].fill(0);
    } else {
        page[whole] &= (1u8 << rem) - 1;
        page[whole + 1..].fill(0);
    }
}

/// Rolls a slice file back to exactly `rows` committed rows, whose
/// boundary-chunk content must chain-digest to `slices_digest` (from the
/// commit record).
///
/// Pages of whole uncommitted chunks are dropped.  In the boundary chunk,
/// every slice page's committed content is reconstructed by clearing the
/// bits of uncommitted rows (committed bits survive any torn write because
/// appends only OR bits in; never-materialised pages reconstruct to
/// zeros).  The reconstructions are chain-digested in slice order and
/// checked against the commit record before anything is written back: a
/// mismatch means committed bits were lost or flipped — real corruption,
/// surfaced rather than re-checksummed into validity.
fn recover<B: StorageBackend>(
    pager: &mut Pager<B>,
    width: usize,
    rows: u64,
    slices_digest: u64,
) -> io::Result<()> {
    let chunks = (rows as usize).div_ceil(CHUNK_ROWS) as u64;
    let target = 1 + chunks * width as u64;
    let keep = pager.page_count().min(target);
    pager.truncate_logical(keep)?;

    let within = rows % CHUNK_ROWS as u64;
    if within != 0 {
        let chunk = rows / CHUNK_ROWS as u64;
        let mut digest = FNV_OFFSET;
        let mut repaired = Vec::with_capacity(width);
        for slice in 0..width as u64 {
            let id = PageId(1 + chunk * width as u64 + slice);
            // Past-the-end pages read as zeros, which is also their
            // reconstruction.
            let mut page = pager.read_page_raw(id)?;
            clear_uncommitted_bits(&mut page, within);
            digest = fnv1a64_extend(digest, &page[..]);
            repaired.push((id, page));
        }
        if digest != slices_digest {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                ChecksumMismatch {
                    page: 1 + chunk * width as u64,
                    expected: slices_digest,
                    actual: digest,
                },
            ));
        }
        for (id, page) in repaired {
            if id.0 < keep {
                pager.write_page(id, &page)?;
            }
        }
    }

    // Rebuild the header from the commit record rather than trusting disk.
    pager.write_page(PageId(0), &encoded_header(width, rows))
}

/// Encodes a slice-file header page (magic, width, rows) — shared by
/// recovery and the offline fold, which stages a new file directly.
pub(crate) fn encoded_header(width: usize, rows: u64) -> crate::pager::PageBuf {
    let mut header = zeroed_page();
    header[0..8].copy_from_slice(&MAGIC.to_le_bytes());
    header[8..16].copy_from_slice(&(width as u64).to_le_bytes());
    header[16..24].copy_from_slice(&rows.to_le_bytes());
    header
}

/// The row count a header page records, after checking its magic and
/// width.
fn header_rows(header: &[u8; PAGE_SIZE], width: usize) -> io::Result<u64> {
    let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    if field(0) != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a BBS slice file",
        ));
    }
    if field(8) != width as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("slice file width {} != requested {width}", field(8)),
        ));
    }
    Ok(field(16))
}

impl<B: StorageBackend> SliceFile<B> {
    /// Opens a slice file over an explicit backend.
    ///
    /// With `recover_to = Some((rows, slices_digest))`, the file is first
    /// rolled back to that committed row count; the reconstructed
    /// boundary-chunk pages must match the commit record's digest.
    pub fn open_with(
        backend: B,
        width: usize,
        cache_pages: usize,
        recover_to: Option<(u64, u64)>,
    ) -> io::Result<Self> {
        assert!(width > 0, "width must be positive");
        let mut pager = Pager::new(backend)?;
        // A width mismatch must be reported as such, not as the boundary
        // digest mismatch recovery would trip over — but only when the
        // header page actually verifies (a torn header is rebuilt by
        // recovery and cannot be trusted to hold anything).
        if pager.page_count() > 0 {
            if let Ok(header) = pager.read_page(PageId(0)) {
                let stored = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
                let magic = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
                if magic == MAGIC && stored != width as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("slice file width {stored} != requested {width}"),
                    ));
                }
            }
        }
        if let Some((rows, slices_digest)) = recover_to {
            recover(&mut pager, width, rows, slices_digest)?;
        }
        let mut cache = PageCache::new(pager, cache_pages);
        let rows = if cache.page_count() == 0 {
            cache.write_at(PageId(0), 0, &encoded_header(width, 0)[..24])?;
            0
        } else {
            cache.with_page(PageId(0), |header| header_rows(header, width))??
        };
        Ok(SliceFile::from_pages(Pages::Private(cache), width, rows))
    }

    /// Opens a read-only view of a committed slice file whose pages come
    /// from (and go to) a deployment's shared cache `shared`.
    ///
    /// The header, which sets this reader's row clamp, is read from the
    /// file and never from the shared cache.  Nothing is written, not even
    /// the header of an empty file.
    pub(crate) fn open_shared(
        backend: B,
        width: usize,
        shared: Arc<SharedPages>,
    ) -> io::Result<Self> {
        assert!(width > 0, "width must be positive");
        let mut pager = Pager::new(backend)?;
        let rows = if pager.page_count() == 0 {
            0
        } else {
            header_rows(&*pager.read_page(PageId(0))?, width)?
        };
        Ok(SliceFile::from_pages(
            Pages::Shared(SharedView::new(pager, shared)),
            width,
            rows,
        ))
    }

    fn from_pages(cache: Pages<B>, width: usize, rows: u64) -> Self {
        SliceFile {
            read: Mutex::new(ReadState::new(cache, width)),
            width,
            rows,
        }
    }

    /// Locks the read state; the guard releases any shared pages the
    /// call held when it drops.
    fn state(&self) -> StateGuard<'_, B> {
        StateGuard(self.read.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn state_mut(&mut self) -> &mut ReadState<B> {
        self.read.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Signature width `m`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of appended rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.state().cache.stats()
    }

    /// Physical I/O counters of the underlying pager.
    pub fn pager_stats(&self) -> PagerStats {
        self.state().cache.pager_stats()
    }

    /// Hot-slice cache counters.
    pub fn hot_stats(&self) -> HotStats {
        self.state().hot.stats()
    }

    /// Appends one row whose set bit positions are `positions` (each `<
    /// width`).  Returns the row index.
    ///
    /// The pinned hot-slice cache is invalidated exactly once per append
    /// (and only when something was pinned), *before* the first bit is
    /// written — see the invalidation contract on [`HotSlices`].  The row
    /// becomes visible to this handle immediately and to independent
    /// readers only after [`SliceFile::flush`] (readers clamp counting to
    /// the row count their header said at open, so a concurrently
    /// appending writer can never make them observe a torn batch).
    pub fn append_row(&mut self, positions: &[usize]) -> io::Result<u64> {
        let row = self.rows;
        let chunk = row / CHUNK_ROWS as u64;
        let within = (row % CHUNK_ROWS as u64) as usize;
        let byte = within / 8;
        let bit = within % 8;
        let width = self.width;
        let state = self.read.get_mut().unwrap_or_else(|e| e.into_inner());
        // Pinned word decodes would go stale; drop them (selection counts
        // survive, so the hot set re-forms once counting resumes).
        state.hot.invalidate();
        for &p in positions {
            assert!(p < width, "position {p} out of range");
            let page = page_of(width, chunk, p);
            let mut b = [0u8; 1];
            let cache = state.cache.writable()?;
            cache.read_at(page, byte, &mut b)?;
            b[0] |= 1 << bit;
            cache.write_at(page, byte, &b)?;
        }
        self.rows += 1;
        crate::bytes::write_u64(state.cache.writable()?, 16, self.rows)?;
        Ok(row)
    }

    /// Loads one slice as an in-memory bit vector of `rows` bits.
    pub fn load_slice(&self, slice: usize) -> io::Result<BitVec> {
        assert!(slice < self.width, "slice {slice} out of range");
        let words = self.state().decode_slice(self.width, self.rows, slice)?;
        Ok(BitVec::from_words(words, self.rows as usize))
    }

    /// `CountItemSet` straight off the disk layout, for a batch of
    /// queries: each `(slices, tau)` counts the rows whose selected slices
    /// (its own `slices` plus every `prefix` slice) are all set, reading
    /// only those slices' pages.  Per-op counting is a batch of one.
    ///
    /// * `prefix` is the Ramp-style projection every query shares: its AND
    ///   is taken once per chunk for the whole batch.  Slices named in both
    ///   `prefix` and a query are harmless (AND is idempotent).
    /// * `dead` restricts counting to live rows: its set rows are
    ///   AND-NOTed out of every chunk (§3.4's constraint-slice trick,
    ///   pointed at tombstones), so a count is bit for bit what counting a
    ///   compacted rewrite of only the surviving rows would give.
    /// * With `tau = Some(τ)` an answer is exact whenever it is `≥ τ` and
    ///   an upper bound on the exact count when it is `< τ`: a query stops
    ///   as soon as even all-ones remaining chunks could not reach `τ`.
    /// * A query whose selection (with `prefix`) is empty counts every
    ///   live row.
    ///
    /// Each query's `slices` must be distinct and `< width`.
    pub fn count_selected(
        &self,
        prefix: &[usize],
        dead: Option<&DeadMask>,
        queries: &[(Vec<usize>, Option<u64>)],
    ) -> io::Result<Vec<u64>> {
        self.state().count(
            self.width,
            self.rows,
            prefix,
            queries,
            dead.filter(|d| d.deleted > 0)
                .map(|d| (d.words.as_slice(), d.deleted)),
        )
    }

    /// Flushes dirty pages and syncs.
    pub fn flush(&mut self) -> io::Result<()> {
        self.state_mut().cache.writable()?.flush()
    }

    /// Chained digest of the boundary-chunk slice pages as they stand
    /// right now (what a commit record vouches for; see
    /// [`crate::commit::Commit::slices_digest`]).  Zero when the row count
    /// is chunk-aligned.
    pub(crate) fn boundary_digest(&mut self) -> io::Result<u64> {
        if self.rows.is_multiple_of(CHUNK_ROWS as u64) {
            return Ok(0);
        }
        let chunk = self.rows / CHUNK_ROWS as u64;
        let width = self.width;
        let state = self.read.get_mut().unwrap_or_else(|e| e.into_inner());
        let mut digest = FNV_OFFSET;
        for slice in 0..width {
            let page = page_of(width, chunk, slice);
            digest = state.cache.with_page(page, |p| fnv1a64_extend(digest, p))?;
        }
        Ok(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_slicefile_{}_{}.bbsx", std::process::id(), name));
        p
    }

    /// Per-op counting: a batch of one.
    fn count(f: &SliceFile, slices: &[usize]) -> u64 {
        bounded(f, slices, None)
    }

    fn bounded(f: &SliceFile, slices: &[usize], tau: Option<u64>) -> u64 {
        count_masked(f, slices, tau, None)
    }

    fn count_masked(
        f: &SliceFile,
        slices: &[usize],
        tau: Option<u64>,
        dead: Option<&DeadMask>,
    ) -> u64 {
        f.count_selected(&[], dead, &[(slices.to_vec(), tau)])
            .expect("count")[0]
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn append_and_load_slice() {
        let p = path("append");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 16, 64).expect("open");
        f.append_row(&[0, 3]).expect("row 0");
        f.append_row(&[3]).expect("row 1");
        f.append_row(&[0, 15]).expect("row 2");
        assert_eq!(f.rows(), 3);
        assert_eq!(
            f.load_slice(0).expect("slice 0").iter_ones().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(
            f.load_slice(3).expect("slice 3").iter_ones().collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            f.load_slice(15).expect("slice 15").iter_ones().collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(f.load_slice(7).expect("slice 7").count_ones(), 0);
    }

    #[test]
    fn count_selected_is_and_popcount() {
        let p = path("count");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        f.append_row(&[0, 1]).expect("append");
        f.append_row(&[1]).expect("append");
        f.append_row(&[0, 1, 2]).expect("append");
        assert_eq!(count(&f, &[]), 3);
        assert_eq!(count(&f, &[1]), 3);
        assert_eq!(count(&f, &[0]), 2);
        assert_eq!(count(&f, &[0, 1]), 2);
        assert_eq!(count(&f, &[0, 2]), 1);
        assert_eq!(count(&f, &[0, 1, 2]), 1);
    }

    #[test]
    fn reopen_preserves_rows_and_width() {
        let p = path("reopen");
        let _g = Cleanup(p.clone());
        {
            let mut f = SliceFile::open(&p, 32, 64).expect("open");
            for i in 0..10 {
                f.append_row(&[i % 32]).expect("append");
            }
            f.flush().expect("flush");
        }
        let f = SliceFile::open(&p, 32, 64).expect("reopen");
        assert_eq!(f.rows(), 10);
        assert_eq!(f.load_slice(0).expect("slice").count_ones(), 1);
        // Wrong width is rejected.
        drop(f);
        assert!(SliceFile::open(&p, 64, 64).is_err());
    }

    #[test]
    fn crossing_a_chunk_boundary() {
        let p = path("chunk");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 4, 64).expect("open");
        // CHUNK_ROWS + 5 rows, every row sets bit 2.
        let n = CHUNK_ROWS + 5;
        for _ in 0..n {
            f.append_row(&[2]).expect("append");
        }
        assert_eq!(f.rows(), n as u64);
        assert_eq!(f.load_slice(2).expect("slice").count_ones(), n);
        assert_eq!(count(&f, &[2]), n as u64);
        assert_eq!(count(&f, &[1, 2]), 0);
    }

    #[test]
    fn cache_pressure_still_correct() {
        let p = path("pressure");
        let _g = Cleanup(p.clone());
        // Cache of 2 pages over a width-8 file forces constant eviction.
        let mut f = SliceFile::open(&p, 8, 2).expect("open");
        for i in 0..100u64 {
            f.append_row(&[(i % 8) as usize, ((i + 3) % 8) as usize])
                .expect("append");
        }
        let total: usize = (0..8)
            .map(|j| f.load_slice(j).expect("slice").count_ones())
            .sum();
        assert_eq!(total, 200, "every set bit accounted for");
        assert!(f.cache_stats().evictions > 0, "pressure actually occurred");
        // A chunk's pages outnumber the cache, so counting decodes them
        // rather than borrowing them in place; it still agrees with the rows.
        for query in [vec![0], vec![0, 3], vec![1, 2, 4], (0..8).collect()] {
            let want = (0..100u64)
                .filter(|i| {
                    let row = [(i % 8) as usize, ((i + 3) % 8) as usize];
                    query.iter().all(|s| row.contains(s))
                })
                .count() as u64;
            assert_eq!(count(&f, &query), want, "{query:?}");
        }
    }

    #[test]
    fn bounded_count_is_tau_consistent() {
        let p = path("bounded");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 4, 64).expect("open");
        // Two chunks; slice 0∩1 is rare and confined to the first chunk, so
        // a large tau can exit after chunk 0.
        let n = CHUNK_ROWS + 100;
        for i in 0..n {
            if i < 10 {
                f.append_row(&[0, 1]).expect("append");
            } else {
                f.append_row(&[i % 2]).expect("append");
            }
        }
        let exact = count(&f, &[0, 1]);
        assert_eq!(exact, 10);
        // tau below the count: result must be exact.
        assert_eq!(bounded(&f, &[0, 1], Some(5)), 10);
        // tau far above: an early exit may fire, but never undercounts and
        // never crosses tau from below.
        let big_tau = 2 * CHUNK_ROWS as u64;
        let est = bounded(&f, &[0, 1], Some(big_tau));
        assert!(est >= exact);
        assert!(est < big_tau);
        // Unbounded agrees with the naive per-slice AND.
        let s0 = f.load_slice(0).expect("s0");
        let s1 = f.load_slice(1).expect("s1");
        assert_eq!(s0.and_count(&s1) as u64, exact);
    }

    #[test]
    fn hot_slices_promote_and_invalidate() {
        let p = path("hot");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        for i in 0..200u64 {
            f.append_row(&[(i % 8) as usize]).expect("append");
        }
        for _ in 0..5 {
            count(&f, &[0, 1]);
        }
        let hs = f.hot_stats();
        assert!(hs.pinned >= 2, "repeatedly selected slices get pinned: {hs:?}");
        assert!(hs.hits > 0);
        let before = count(&f, &[0]);
        // Append invalidates the pinned words; counting still agrees.
        f.append_row(&[0]).expect("append");
        assert_eq!(f.hot_stats().pinned, 0);
        assert!(f.hot_stats().invalidations >= 1);
        assert_eq!(count(&f, &[0]), before + 1);
    }

    #[test]
    fn hot_invalidation_is_exactly_once_per_append() {
        let p = path("hot_exact");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        for i in 0..100u64 {
            f.append_row(&[(i % 8) as usize]).expect("append");
        }
        // Nothing pinned yet: those 100 appends cost zero invalidations.
        assert_eq!(f.hot_stats().invalidations, 0);
        for _ in 0..PROMOTE_AFTER {
            count(&f, &[0, 1]);
        }
        assert!(f.hot_stats().pinned >= 2);
        // One append over a pinned set: exactly one invalidation.
        f.append_row(&[0]).expect("append");
        assert_eq!(f.hot_stats().invalidations, 1);
        assert_eq!(f.hot_stats().pinned, 0);
        // Further appends with the set already empty add none.
        f.append_row(&[1]).expect("append");
        f.append_row(&[2]).expect("append");
        assert_eq!(f.hot_stats().invalidations, 1);
        // Counting re-promotes (selection counts survived), and the next
        // append invalidates exactly once again.
        count(&f, &[0, 1]);
        assert!(f.hot_stats().pinned >= 2, "{:?}", f.hot_stats());
        f.append_row(&[3]).expect("append");
        assert_eq!(f.hot_stats().invalidations, 2);
    }

    #[test]
    fn reader_clamps_counts_to_its_snapshot_rows() {
        let p = path("snapclamp");
        let _g = Cleanup(p.clone());
        let mut writer = SliceFile::open(&p, 8, 64).expect("open");
        for _ in 0..100u64 {
            writer.append_row(&[0, 1]).expect("append");
        }
        writer.flush().expect("flush");
        // A reader opened now is pinned to 100 rows.
        let reader = SliceFile::open(&p, 8, 64).expect("reader");
        assert_eq!(reader.rows(), 100);
        // The writer keeps appending into the *same* boundary-chunk pages
        // and flushes; the reader's counts must not move.
        for _ in 0..50u64 {
            writer.append_row(&[0, 1]).expect("append");
        }
        writer.flush().expect("flush");
        assert_eq!(count(&reader, &[0]), 100);
        assert_eq!(count(&reader, &[0, 1]), 100);
        assert_eq!(reader.load_slice(1).expect("slice").count_ones(), 100);
        // Repeat counting so the reader pins hot slices (decoded from pages
        // that now contain newer bits) — the clamp must hold there too.
        for _ in 0..5 {
            assert_eq!(count(&reader, &[0, 1]), 100);
        }
        assert!(reader.hot_stats().pinned > 0);
        assert_eq!(count(&reader, &[0, 1]), 100);
        // A freshly opened reader sees the newer flushed state.
        let fresh = SliceFile::open(&p, 8, 64).expect("fresh");
        assert_eq!(fresh.rows(), 150);
        assert_eq!(count(&fresh, &[0, 1]), 150);
    }

    #[test]
    fn count_selected_many_matches_per_op() {
        let p = path("many");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        // Cross a chunk boundary so the shared scan exercises multiple
        // chunks and the boundary clamp.
        let n = CHUNK_ROWS + 321;
        for i in 0..n {
            f.append_row(&[i % 8, (i * 3) % 8]).expect("append");
        }
        let queries: Vec<(Vec<usize>, Option<u64>)> = vec![
            (vec![0], None),
            (vec![0, 1], None),
            (vec![2, 5, 7], Some(10)),
            (vec![], None),
            (vec![3], Some(u64::MAX)),
            (vec![1, 2, 3, 4, 5, 6, 7], Some(1)),
        ];
        let batched = f.count_selected(&[], None, &queries).expect("batched");
        for (i, (slices, tau)) in queries.iter().enumerate() {
            let solo = bounded(&f, slices, *tau);
            assert_eq!(batched[i], solo, "query {i} {slices:?} tau {tau:?}");
        }
        // Repeat after hot promotion: pinned-slice segments agree too.
        for _ in 0..5 {
            count(&f, &[0, 1]);
        }
        assert!(f.hot_stats().pinned > 0);
        let batched2 = f.count_selected(&[], None, &queries).expect("batched hot");
        assert_eq!(batched, batched2);
        // Shared-prefix projection agrees with per-op counting of each
        // prefix ∪ extension union, including a query overlapping the
        // prefix and a query with no extensions of its own.
        let prefix = vec![1usize, 2];
        let exts: Vec<(Vec<usize>, Option<u64>)> = vec![
            (vec![3], None),
            (vec![2, 5], Some(5)),
            (vec![], None),
            (vec![7], Some(u64::MAX)),
        ];
        let shared = f.count_selected(&prefix, None, &exts).expect("shared");
        for (i, (slices, tau)) in exts.iter().enumerate() {
            let mut union: Vec<usize> = prefix.iter().chain(slices).copied().collect();
            union.sort_unstable();
            union.dedup();
            let solo = bounded(&f, &union, *tau);
            assert_eq!(shared[i], solo, "shared query {i} {slices:?} tau {tau:?}");
        }
    }

    #[test]
    fn masked_counts_equal_compacted_rebuild() {
        let p = path("masked");
        let _g = Cleanup(p.clone());
        let p2 = path("masked_rebuilt");
        let _g2 = Cleanup(p2.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        // Rows cross a chunk boundary; tombstone a scattered third of them.
        let n = CHUNK_ROWS + 321;
        let rows: Vec<Vec<usize>> = (0..n)
            .map(|i| vec![i % 8, (i * 5 + 1) % 8])
            .collect();
        for r in &rows {
            f.append_row(r).expect("append");
        }
        let mut dead = DeadMask::default();
        for (i, _) in rows.iter().enumerate() {
            if i % 3 == 0 {
                let w = i / 64;
                if dead.words.len() <= w {
                    dead.words.resize(w + 1, 0);
                }
                dead.words[w] |= 1 << (i % 64);
                dead.deleted += 1;
            }
        }
        // The oracle: a file holding only the surviving rows.
        let mut g = SliceFile::open(&p2, 8, 64).expect("open rebuilt");
        for (i, r) in rows.iter().enumerate() {
            if i % 3 != 0 {
                g.append_row(r).expect("append");
            }
        }
        let queries: Vec<(Vec<usize>, Option<u64>)> = vec![
            (vec![], None),
            (vec![0], None),
            (vec![0, 1], None),
            (vec![2, 5, 7], Some(10)),
            (vec![3], Some(u64::MAX)),
        ];
        for (slices, _) in &queries {
            assert_eq!(
                count_masked(&f, slices, None, Some(&dead)),
                count(&g, slices),
                "per-op {slices:?}"
            );
        }
        let masked = f
            .count_selected(&[], Some(&dead), &queries)
            .expect("masked many");
        for (i, (slices, tau)) in queries.iter().enumerate() {
            let solo = count_masked(&f, slices, *tau, Some(&dead));
            assert_eq!(masked[i], solo, "batched vs per-op {slices:?}");
        }
        // Shared-prefix projection with the mask riding the prefix.
        let shared = f
            .count_selected(&[1, 2], Some(&dead), &queries)
            .expect("shared masked");
        for (i, (slices, tau)) in queries.iter().enumerate() {
            let mut union: Vec<usize> = [1usize, 2].iter().chain(slices).copied().collect();
            union.sort_unstable();
            union.dedup();
            let exact = count(&g, &union);
            match tau {
                // No early exit: the masked count must be exact.
                None => assert_eq!(shared[i], exact, "shared {slices:?}"),
                // The tau contract: exact at or above the threshold, an
                // upper bound below it (early exit may stop scanning at a
                // different chunk than the rebuilt file would).
                Some(t) => {
                    assert!(shared[i] >= exact, "shared {slices:?} not a bound");
                    if shared[i] >= *t {
                        assert_eq!(shared[i], exact, "shared {slices:?} above tau");
                    }
                }
            }
        }
        // No tombstones: the masked paths degrade to the plain ones.
        assert_eq!(
            count_masked(&f, &[0], None, Some(&DeadMask::default())),
            count(&f, &[0])
        );
    }

    #[test]
    fn shared_reference_counting() {
        let p = path("shared");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        for i in 0..50u64 {
            f.append_row(&[(i % 8) as usize, ((i + 1) % 8) as usize])
                .expect("append");
        }
        let shared = &f;
        let a = count(shared, &[0]);
        let b = count(shared, &[0]);
        assert_eq!(a, b);
        // And across scoped threads on the same shared reference.
        let (x, y) = std::thread::scope(|s| {
            let h1 = s.spawn(|| count(shared, &[0, 1]));
            let h2 = s.spawn(|| count(shared, &[0, 1]));
            (h1.join().expect("join1"), h2.join().expect("join2"))
        });
        assert_eq!(x, y);
        assert_eq!(x, count(shared, &[0, 1]));
    }
}
