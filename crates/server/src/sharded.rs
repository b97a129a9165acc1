//! The local shard tier: [`ShardedEngine`] is the [`Router`] over N
//! complete [`Engine`]s in one process, one per shard of a `bbs_shard`
//! directory.
//!
//! Every shard owns its full stack — pager, commit record, dedup window,
//! replication log, **and its own committer thread** — so the router's
//! write path is N independent group-commit pipelines and the per-shard
//! sub-batches commit concurrently.  Counts run on each shard's
//! shared-scan executor at its latest snapshot; the mine loads each
//! snapshot into memory.  What only this tier does lives here: opening
//! the shards from the `MANIFEST`, and re-pinning the `MANIFEST` width
//! after a maintenance fan-out re-sized the files.

use crate::client::PinReply;
use crate::engine::{Engine, InsertOutcome, ServerConfig};
use crate::proto::{Reply, Request, Response};
use crate::router::{json_array, PinnedShard, Router, ShardBackend, ShardFaults};
use bbs_core::Bbs;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_shard::{scatter, shard_base, Manifest, ShardHandle};
use bbs_storage::snapshot::Snapshot;
use bbs_tdb::{Itemset, Transaction, TransactionDb};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The shard router over local engines.
pub type ShardedEngine = Router<LocalShard>;

/// One shard served by an in-process [`Engine`].
pub struct LocalShard {
    engine: Arc<Engine>,
    faults: ShardFaults,
}

impl LocalShard {
    /// The shard's engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

/// A local shard pinned at one published snapshot: the gather layer
/// counts through the snapshot's shared-scan executor.
pub struct SnapshotShard<'a> {
    snap: Arc<Snapshot>,
    faults: &'a ShardFaults,
}

impl SnapshotShard<'_> {
    fn note<T>(&self, r: io::Result<T>) -> io::Result<T> {
        r.inspect_err(|_| {
            self.faults.scatter_errors.fetch_add(1, Ordering::Relaxed);
        })
    }
}

impl ShardHandle for SnapshotShard<'_> {
    fn rows(&self) -> u64 {
        self.snap.rows()
    }

    fn count_many(&self, itemsets: &[Itemset], tau: Option<u64>) -> io::Result<Vec<u64>> {
        self.note(self.snap.count_many_bounded(itemsets, tau))
    }
}

impl PinnedShard for SnapshotShard<'_> {
    fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    fn load(&self) -> io::Result<(TransactionDb, Bbs)> {
        self.note(self.snap.load())
    }

    fn probe(&self, row: u64) -> io::Result<Option<(u64, Vec<u32>)>> {
        Ok(self
            .snap
            .probe(row)?
            .map(|t| (t.tid.0, t.items.items().iter().map(|i| i.0).collect())))
    }
}

impl ShardBackend for LocalShard {
    /// The sharded deployment's directory.
    type Tier = PathBuf;
    type Options = (ServerConfig, Arc<dyn ItemHasher>);
    type Pinned<'a> = SnapshotShard<'a>;

    /// Opens (crash-recovering, in parallel) every shard named by the
    /// directory's `MANIFEST`, at the width it pins.
    fn connect_all(
        dir: &PathBuf,
        (cfg, hasher): Self::Options,
    ) -> io::Result<(Vec<LocalShard>, usize)> {
        if cfg.follow.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded deployment cannot follow a primary; replicate shards individually",
            ));
        }
        let manifest = Manifest::read(dir)?;
        let cfg = ServerConfig {
            width: manifest.width,
            ..cfg
        };
        let indices: Vec<usize> = (0..manifest.shards).collect();
        let shards = scatter(&indices, |_, &i| {
            Ok(LocalShard {
                engine: Engine::open_with(&shard_base(dir, i), cfg.clone(), Arc::clone(&hasher))?,
                faults: ShardFaults::default(),
            })
        })?;
        Ok((shards, cfg.mine_threads))
    }

    fn pin(&self) -> io::Result<SnapshotShard<'_>> {
        Ok(SnapshotShard {
            snap: self.engine.snapshot(),
            faults: &self.faults,
        })
    }

    fn insert(&self, req_id: u64, txns: &[(u64, Vec<u32>)]) -> Response {
        let txns = txns
            .iter()
            .map(|(tid, items)| Transaction::new(*tid, Itemset::from_values(items)))
            .collect();
        self.engine.insert_with_id(req_id, txns).into()
    }

    fn delete(&self, req_id: u64, tids: &[u64]) -> Response {
        self.engine.delete_tids(req_id, tids)
    }

    fn maintain(&self, action: u8, arg: u64) -> Response {
        let resp = self.engine.handle(&Request::Maintain { action, arg });
        if !matches!(resp, Response::Ok(_)) {
            self.faults.scatter_errors.fetch_add(1, Ordering::Relaxed);
        }
        resp
    }

    /// Re-pins the `MANIFEST` width to the shards' live slice width after
    /// a compaction or fold re-sized the files, so offline tools (`bbs
    /// ingest`/`mine-deployment`) and fresh opens agree with what is on
    /// disk.  A no-op while the shards disagree (a fan-out that failed
    /// partway leaves the old pin).
    fn maintained(dir: &PathBuf, shards: &[Self]) -> io::Result<()> {
        let width = shards[0].engine.width();
        if shards.iter().any(|s| s.engine.width() != width) {
            return Ok(());
        }
        let failed =
            |e: io::Error| io::Error::new(e.kind(), format!("manifest update failed: {e}"));
        let mut manifest = Manifest::read(dir).map_err(failed)?;
        if manifest.width != width {
            manifest.width = width;
            manifest.write(dir).map_err(failed)?;
        }
        Ok(())
    }

    fn faults(&self) -> &ShardFaults {
        &self.faults
    }

    fn last_pin(&self) -> PinReply {
        let snap = self.engine.snapshot();
        PinReply {
            epoch: snap.epoch(),
            rows: snap.rows(),
            width: self.engine.width() as u32,
            hasher: self.engine.hasher_id().to_string(),
        }
    }

    /// The widest shard's width, per-shard replication lag, queue depth,
    /// tombstones and measured FPR, and the deployment's dead and live
    /// row totals.
    fn tier_stats(_dir: &PathBuf, shards: &[Self]) -> Vec<String> {
        let snaps: Vec<Arc<Snapshot>> = shards.iter().map(|s| s.engine.snapshot()).collect();
        let metrics = || shards.iter().map(|s| s.engine.metrics());
        vec![
            format!(
                "\"width\":{}",
                shards.iter().map(|s| s.engine.width()).max().unwrap_or(0)
            ),
            json_array(
                "shard_lag",
                metrics().map(|m| m.replication_lag_rows.load(Ordering::Relaxed)),
            ),
            json_array(
                "shard_queue_depth",
                metrics().map(|m| m.queue_depth.load(Ordering::Relaxed)),
            ),
            json_array("shard_deleted_rows", snaps.iter().map(|s| s.deleted_rows())),
            json_array(
                "shard_fpr",
                metrics().map(|m| {
                    format!(
                        "{:.6}",
                        f64::from_bits(m.last_measured_fpr_bits.load(Ordering::Relaxed))
                    )
                }),
            ),
            format!(
                "\"deleted_rows\":{}",
                snaps.iter().map(|s| s.deleted_rows()).sum::<u64>()
            ),
            format!(
                "\"live_rows\":{}",
                snaps.iter().map(|s| s.live_rows()).sum::<u64>()
            ),
        ]
    }

    fn drain(&self) {
        self.engine.begin_drain();
    }

    fn join(&self) {
        self.engine.join();
    }
}

impl ShardedEngine {
    /// Opens (crash-recovering, in parallel) every shard of the sharded
    /// deployment at `dir` with the default MD5 Bloom hasher.
    pub fn open(dir: &Path, cfg: ServerConfig) -> io::Result<Arc<ShardedEngine>> {
        ShardedEngine::open_with(dir, cfg, Arc::new(Md5BloomHasher::new(4)))
    }

    /// [`ShardedEngine::open`] with an explicit hash family.
    pub fn open_with(
        dir: &Path,
        cfg: ServerConfig,
        hasher: Arc<dyn ItemHasher>,
    ) -> io::Result<Arc<ShardedEngine>> {
        Router::connect(dir.to_path_buf(), (cfg, hasher))
    }

    /// [`Router::insert`] for in-process callers holding transactions.
    pub fn insert_with_id(&self, req_id: u64, txns: Vec<Transaction>) -> InsertOutcome {
        let txns: Vec<(u64, Vec<u32>)> = txns
            .into_iter()
            .map(|t| (t.tid.0, t.items.items().iter().map(|i| i.0).collect()))
            .collect();
        match self.insert(req_id, &txns) {
            Response::Ok(Reply::Insert {
                first_row,
                appended,
                epoch,
                deduped,
            }) => InsertOutcome::Committed {
                first_row,
                appended,
                epoch,
                deduped,
            },
            Response::Overloaded => InsertOutcome::Overloaded,
            Response::DiskFull => InsertOutcome::DiskFull,
            Response::NotPrimary(primary) => InsertOutcome::NotPrimary(primary),
            Response::Err(msg) => InsertOutcome::Failed(msg),
            other => InsertOutcome::Failed(format!("{other:?}")),
        }
    }
}
