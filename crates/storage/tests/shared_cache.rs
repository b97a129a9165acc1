//! The deployment's shared slice-page cache (rule 4 of the isolation
//! protocol in `snapshot.rs`), checked two ways on a pinned seed:
//!
//! * **Oracle** — across commits that extend the boundary chunk, open a
//!   new chunk (whose unwritten pages lie past a reader's end), deletes, a
//!   disk-full commit that poisons and heals the writer, a compaction and
//!   a fold, every snapshot published so far keeps answering a fixed query
//!   set bit for bit as an offline `Bbs` of its epoch's live rows.
//! * **Counter** — after one commit into chunk `c`, a warmed query costs
//!   the new snapshot exactly one physical read per selected slice, all in
//!   chunk `c`: every earlier chunk is served from the shared cache.

use bbs_core::Bbs;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::{DiskBbs, DiskDeployment, FaultPlan, SharedDeployment, Snapshot, CHUNK_ROWS};
use bbs_tdb::{IoStats, Itemset, Transaction};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 0x5eed_cac4e;
const ITEMS: u64 = 40;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_shared_cache_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

/// xorshift64: the pinned-seed generator behind every row.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The deployment's rows as the oracle sees them, in row order.
struct Model {
    rng: Rng,
    next_tid: u64,
    rows: Vec<(Transaction, bool)>,
    width: usize,
}

impl Model {
    fn batch(&mut self, n: usize, max_items: u64) -> Vec<Transaction> {
        let txns: Vec<Transaction> = (0..n)
            .map(|_| {
                let len = 1 + self.rng.next() % max_items;
                let items: Vec<u32> = (0..len).map(|_| (self.rng.next() % ITEMS) as u32).collect();
                self.next_tid += 1;
                Transaction::new(self.next_tid, Itemset::from_values(&items))
            })
            .collect();
        self.rows.extend(txns.iter().map(|t| (t.clone(), true)));
        txns
    }

    /// The offline answers for the live rows.
    fn expected(&self, queries: &[Itemset]) -> Vec<u64> {
        let mut bbs = Bbs::new(self.width, hasher());
        let mut io = IoStats::new();
        for (t, live) in &self.rows {
            if *live {
                bbs.insert(t, &mut io);
            }
        }
        queries.iter().map(|q| bbs.est_count(q, &mut io)).collect()
    }
}

fn queries() -> Vec<Itemset> {
    let mut rng = Rng(SEED ^ 0xabcd);
    (0..24)
        .map(|i| {
            let len = 1 + i % 3;
            let items: Vec<u32> = (0..len).map(|_| (rng.next() % ITEMS) as u32).collect();
            Itemset::from_values(&items)
        })
        .collect()
}

/// Every retained snapshot, oldest first, answers its epoch's truth both
/// per itemset and batched.
fn check(step: &str, retained: &[(Arc<Snapshot>, Vec<u64>)], queries: &[Itemset]) {
    for (snap, want) in retained {
        let epoch = snap.epoch();
        let batched = snap.count_many(queries).expect("count_many");
        assert_eq!(&batched, want, "{step}: batched answers at epoch {epoch}");
        for (q, w) in queries.iter().zip(want) {
            assert_eq!(
                snap.count(q).expect("count"),
                *w,
                "{step}: {q:?} at epoch {epoch}"
            );
        }
    }
}

#[test]
fn every_snapshot_matches_the_offline_oracle_across_generations() {
    let b = base("oracle");
    let _g = Cleanup(b.clone());
    let plan = FaultPlan::counting();
    // 48 pages < the 129 a two-chunk file holds, so the shared cache
    // evicts as well as drops.
    let shared = SharedDeployment::open_faulty(&b, 64, hasher(), 48, plan.clone()).expect("open");
    let qs = queries();
    let mut model = Model {
        rng: Rng(SEED),
        next_tid: 0,
        rows: Vec::new(),
        width: 64,
    };
    let mut retained: Vec<(Arc<Snapshot>, Vec<u64>)> = Vec::new();
    let publish = |retained: &mut Vec<(Arc<Snapshot>, Vec<u64>)>, model: &Model, step: &str| {
        let snap = shared.snapshot();
        assert_eq!(
            snap.live_rows(),
            model.rows.iter().filter(|r| r.1).count() as u64,
            "{step}"
        );
        retained.push((snap, model.expected(&qs)));
        check(step, retained, &qs);
    };
    let commit = |model: &mut Model, n: usize, max_items: u64| {
        let txns = model.batch(n, max_items);
        shared.commit(&txns).expect("commit");
    };

    commit(&mut model, 32_000, 5);
    publish(&mut retained, &model, "bulk load into chunk 0");
    commit(&mut model, 500, 5);
    publish(&mut retained, &model, "extend the boundary chunk");
    commit(&mut model, 268, 5);
    assert_eq!(model.rows.len(), CHUNK_ROWS);
    publish(&mut retained, &model, "fill chunk 0 exactly");
    // One single-item row opens chunk 1: most of its slice pages are not
    // written yet and read as zeros past the snapshot's end.
    commit(&mut model, 1, 1);
    publish(&mut retained, &model, "open chunk 1");
    // Now those pages exist.  The older snapshot counts first (reading
    // zeros past its own end), and must not hide them from the newer one.
    commit(&mut model, 600, 8);
    publish(&mut retained, &model, "materialise chunk 1");

    let victims: Vec<u64> = model
        .rows
        .iter()
        .map(|(t, _)| t.tid.0)
        .filter(|tid| tid % 7 == 3)
        .collect();
    let receipt = shared.delete_tids(&victims, 0).expect("delete");
    assert_eq!(receipt.deleted, victims.len() as u64);
    for row in &mut model.rows {
        if row.0.tid.0 % 7 == 3 {
            row.1 = false;
        }
    }
    publish(&mut retained, &model, "delete across both chunks");

    let drops = shared.slice_cache_stats().dropped;
    plan.set_disk_full(true);
    let failed = model.rng.next();
    let doomed: Vec<Transaction> = (0..300)
        .map(|i| {
            let items = [(failed % ITEMS) as u32, 1];
            Transaction::new(1_000_000 + i, Itemset::from_values(&items))
        })
        .collect();
    assert!(shared.commit(&doomed).is_err(), "the disk is full");
    assert!(shared.writer_poisoned());
    assert_eq!(
        shared.slice_cache_stats().dropped,
        drops,
        "a failed commit drops nothing"
    );
    check("failed commit", &retained, &qs);
    plan.set_disk_full(false);
    commit(&mut model, 300, 5);
    publish(&mut retained, &model, "heal and commit");
    assert_eq!(
        shared.slice_cache_stats().generations,
        2,
        "the heal starts a generation"
    );

    shared.compact(None).expect("compact");
    model.rows.retain(|r| r.1);
    publish(&mut retained, &model, "compact");
    assert_eq!(shared.slice_cache_stats().generations, 3);
    commit(&mut model, 200, 5);
    publish(&mut retained, &model, "commit after compaction");

    shared.fold().expect("fold");
    model.width = 32;
    assert_eq!(shared.width(), 32);
    publish(&mut retained, &model, "fold");
    assert_eq!(shared.slice_cache_stats().generations, 4);
    commit(&mut model, 200, 5);
    publish(&mut retained, &model, "commit after fold");

    let stats = shared.slice_cache_stats();
    assert!(
        stats.hits > 0 && stats.evictions > 0 && stats.dropped > 0,
        "{stats:?}"
    );
    assert!(stats.resident <= 48, "{stats:?}");
}

#[test]
fn a_commit_rereads_only_its_own_chunk() {
    let b = base("counter");
    let _g = Cleanup(b.clone());
    let width = 64;
    let shared = SharedDeployment::open(&b, width, hasher(), 512).expect("open");
    let q = Itemset::from_values(&[3, 17]);
    let slices = {
        let h = hasher();
        let mut s: Vec<usize> = q
            .items()
            .iter()
            .flat_map(|i| h.positions_vec(i.value(), width))
            .collect();
        s.sort_unstable();
        s.dedup();
        s.len() as u64
    };
    // Chunk 0 full, chunk 1 begun; every chunk-1 row holds q's items, so
    // each of q's chunk-1 pages exists on disk.
    let mut rng = Rng(SEED);
    let mut row = |tid: u64| {
        let extra = (rng.next() % ITEMS) as u32;
        let items: &[u32] = if tid >= CHUNK_ROWS as u64 {
            &[3, 17, extra]
        } else {
            &[extra, 5]
        };
        Transaction::new(tid, Itemset::from_values(items))
    };
    let first: Vec<Transaction> = (0..CHUNK_ROWS as u64 + 200).map(&mut row).collect();
    shared.commit(&first).expect("commit");
    let a = shared.snapshot();
    let reads = a.pager_stats().reads;
    let warm = a.count(&q).expect("warm");
    assert_eq!(
        a.pager_stats().reads - reads,
        2 * slices,
        "cold: both chunks"
    );

    let rows = a.rows();
    let more: Vec<Transaction> = (rows..rows + 100).map(&mut row).collect();
    let receipt = shared.commit(&more).expect("commit into chunk 1");
    let b_snap = receipt.snapshot;
    let (reads, misses) = (b_snap.pager_stats().reads, b_snap.cache_stats().misses);
    let before = shared.slice_cache_stats();
    let got = b_snap.count(&q).expect("count");
    assert_eq!(
        b_snap.pager_stats().reads - reads,
        slices,
        "only chunk 1 is read again"
    );
    assert_eq!(b_snap.cache_stats().misses - misses, slices);
    let after = shared.slice_cache_stats();
    assert_eq!(after.hits - before.hits, slices, "chunk 0 is shared");
    assert_eq!(after.misses - before.misses, slices, "chunk 1 was dropped");

    let private = DiskBbs::open(&b, width, hasher(), 512).expect("private reader");
    assert_eq!(got, private.count_itemset(&q).expect("count"));
    assert_eq!(
        a.count(&q).expect("old"),
        warm,
        "the old snapshot keeps its epoch"
    );
}
