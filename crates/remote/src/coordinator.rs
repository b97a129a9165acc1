//! [`CoordinatorEngine`]: the request engine of a distributed deployment.
//!
//! A coordinator is the shard router (`bbs_server::Router`) over
//! [`RemoteShardHandle`]s: it speaks the same wire protocol as every other
//! server, routes inserts and deletes by TID residue reusing the client's
//! request ID (so exactly-once composes end to end, the coordinator
//! adding no state of its own), and scatter-gathers counts and mining.
//! What only this tier does lives in the handle: the width and hasher
//! check at connect, which keeps per-shard estimates additive, and the
//! mine's row pull that rebuilds each shard's index in memory.
//!
//! A scatter that cannot reach a shard — after retries, and after
//! failover to the shard's follower if the topology names one — answers
//! with a typed `SHARD_UNAVAILABLE` response naming the shard, never a
//! silently-wrong partial total.  Draining a coordinator stops only the
//! coordinator: the shard servers keep running for other coordinators
//! and operators.

use crate::handle::{RemoteOptions, RemoteShardHandle};
use bbs_hash::{ItemHasher, Md5BloomHasher, ModuloHasher};
use bbs_server::Router;
use std::sync::Arc;

/// The shard router over a topology of remote shards.
pub type CoordinatorEngine = Router<RemoteShardHandle>;

/// Coordinator construction knobs.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorOptions {
    /// Per-shard connection settings (timeout, retry policy).
    pub remote: RemoteOptions,
    /// Worker threads for distributed mining (0 = all cores).
    pub mine_threads: usize,
}

/// Reconstructs the hash family a topology names (`md5/K`, `mod/1`).
///
/// The coordinator needs the actual functions — not just the identity
/// string — to rebuild per-shard indexes for distributed mining.
pub fn hasher_for_id(id: &str) -> Option<Arc<dyn ItemHasher>> {
    if id == "mod/1" {
        return Some(Arc::new(ModuloHasher));
    }
    let k: usize = id.strip_prefix("md5/")?.parse().ok()?;
    (k > 0).then(|| Arc::new(Md5BloomHasher::new(k)) as Arc<dyn ItemHasher>)
}
