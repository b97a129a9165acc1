//! [`RemoteShardHandle`]: one shard of a distributed deployment, reached
//! over the wire protocol.
//!
//! The handle is the shard router's [`ShardBackend`] for a shard
//! server, and its [`RemotePin`] the [`ShardHandle`] the gather layer
//! (`bbs_shard::gather`, with its scaled-τ cross-shard scheme) counts
//! through, so the router runs unchanged over remote nodes.  Under
//! the hood every call goes through a [`RetryClient`] — per-request
//! timeouts, capped exponential backoff with jitter, reconnect after
//! transport failures — and counting runs against a **pinned epoch** so
//! the τ scheme's re-queries patch the same snapshot the first pass
//! scattered over.
//!
//! # Failure model
//!
//! Three layers, from inside out:
//!
//! 1. **Transient faults** (dropped connection, timeout, overload) are
//!    retried by the [`RetryClient`] with backoff; idempotent reads are
//!    always safe to re-send, and inserts reuse their request ID so the
//!    shard's exactly-once window answers a retry of a committed batch
//!    with its original receipt.
//! 2. **Stale pins** (the shard evicted our pinned snapshot) come back as
//!    a typed error; the handle re-pins the latest snapshot and retries
//!    once.
//! 3. **Primary loss** (the retry budget exhausted on transport errors)
//!    triggers **replica failover** when the topology names a follower:
//!    the handle promotes the follower, re-points itself at it, re-pins,
//!    and retries the call once.  Without a follower — or if the follower
//!    is also unreachable — the handle records itself *unavailable* with
//!    a message naming the shard, which the coordinator surfaces as a
//!    typed `SHARD_UNAVAILABLE` response instead of a silently-wrong
//!    partial total.

use crate::coordinator::{hasher_for_id, CoordinatorOptions};
use crate::topology::Topology;
use bbs_core::Bbs;
use bbs_server::{
    json_array, maintain_action, ClientError, ClientResult, PinReply, PinnedShard, Reply, Response,
    RetryClient, RetryPolicy, ServerAddr, ShardBackend, ShardFaults,
};
use bbs_shard::{scatter, ShardHandle};
use bbs_tdb::{IoStats, Itemset, Transaction, TransactionDb};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Connection knobs for one remote shard.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Bound on any single request's wait for its response frame.
    pub timeout: Duration,
    /// Retry/backoff schedule for transient faults.
    pub policy: RetryPolicy,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            timeout: Duration::from_secs(5),
            policy: RetryPolicy::default(),
        }
    }
}

struct Inner {
    client: RetryClient,
    addr: String,
    follower: Option<String>,
    pin: Option<PinReply>,
}

impl Inner {
    fn dial(addr: &str, opts: &RemoteOptions) -> RetryClient {
        let mut client = RetryClient::with_policy(ServerAddr::Tcp(addr.to_string()), opts.policy);
        client.set_timeout(Some(opts.timeout));
        client
    }
}

/// One shard of a distributed deployment, addressed over TCP.
pub struct RemoteShardHandle {
    shard: u32,
    opts: RemoteOptions,
    faults: ShardFaults,
    inner: Mutex<Inner>,
    unavailable: Mutex<Option<String>>,
    /// The topology's slice width and hasher identity: the mine rebuilds
    /// this shard's index from its rows with them.
    width: usize,
    hasher: String,
}

impl RemoteShardHandle {
    /// Connects to shard `shard` of `topology` at its primary, pins its
    /// latest snapshot, and refuses a shard whose pinned width or hasher
    /// identity disagrees with the topology, naming both values.
    pub(crate) fn connect(
        topology: &Topology,
        shard: usize,
        opts: RemoteOptions,
    ) -> io::Result<RemoteShardHandle> {
        let node = &topology.nodes[shard];
        let handle = RemoteShardHandle {
            shard: node.id,
            inner: Mutex::new(Inner {
                client: Inner::dial(&node.primary, &opts),
                addr: node.primary.clone(),
                follower: node.follower.clone(),
                pin: None,
            }),
            opts,
            faults: ShardFaults::default(),
            unavailable: Mutex::new(None),
            width: topology.width,
            hasher: topology.hasher.clone(),
        };
        let pin = handle.repin().map_err(|e| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {} at {}: {e}", node.id, node.primary),
            )
        })?;
        let identity = [
            ("width", pin.width.to_string(), topology.width.to_string()),
            ("hasher", pin.hasher, topology.hasher.clone()),
        ];
        for (what, served, pinned) in identity {
            if served != pinned {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {} at {}: serves {what} {served} but the topology pins {what} \
                         {pinned}",
                        node.id, node.primary
                    ),
                ));
            }
        }
        Ok(handle)
    }

    /// The shard ordinal this handle serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The address currently serving this shard (the follower's after a
    /// failover).
    pub fn addr(&self) -> String {
        self.lock().addr.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_unavailable(&self, msg: Option<String>) {
        *self.unavailable.lock().unwrap_or_else(|e| e.into_inner()) = msg;
    }

    /// True when an error means the server stopped answering (as opposed
    /// to answering with a rejection): the retry budget drained on the
    /// transport itself, so failover is the only move left.
    fn is_transport(e: &ClientError) -> bool {
        matches!(e, ClientError::Io(_) | ClientError::BadFrame(_))
    }

    fn note_fault(&self, e: &ClientError) {
        let timed_out = matches!(
            e,
            ClientError::Io(io) if matches!(io.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
        );
        if timed_out {
            self.faults.timeouts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.faults.scatter_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Promotes the follower and re-points this handle at it.  The old
    /// primary is abandoned (it is presumed dead; if it comes back it
    /// will answer `NotPrimary` readers and can be re-seeded as a new
    /// follower out of band).
    fn failover(&self, inner: &mut Inner) -> ClientResult<()> {
        let follower = inner.follower.take().ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("shard {} has no follower to fail over to", self.shard),
            ))
        })?;
        let mut client = Inner::dial(&follower, &self.opts);
        client.promote().map_err(|e| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                format!(
                    "shard {}: follower {follower} did not take over: {e}",
                    self.shard
                ),
            ))
        })?;
        inner.client = client;
        inner.addr = follower;
        inner.pin = None;
        self.faults.failovers.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs `f` against the current connection; on transport exhaustion,
    /// fails over to the follower (when one exists) and retries once.
    /// Success clears the unavailable marker; a dead end records it.
    fn call<T>(&self, f: impl Fn(&mut RetryClient) -> ClientResult<T>) -> ClientResult<T> {
        let mut inner = self.lock();
        let first = f(&mut inner.client);
        let outcome = match first {
            Err(e) if Self::is_transport(&e) => {
                self.note_fault(&e);
                match self.failover(&mut inner) {
                    Ok(()) => {
                        // The pin died with the old primary; restore one
                        // before retrying a pinned read.
                        match Self::pin_inner(&mut inner) {
                            Ok(()) => f(&mut inner.client),
                            Err(pe) => Err(pe),
                        }
                    }
                    Err(fe) => {
                        // Keep the original story: the primary went
                        // silent, and this is why.
                        Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::NotConnected,
                            format!("primary unreachable ({e}); {fe}"),
                        )))
                    }
                }
            }
            other => other,
        };
        match outcome {
            Ok(v) => {
                self.set_unavailable(None);
                Ok(v)
            }
            Err(e) => {
                if Self::is_transport(&e) {
                    self.set_unavailable(Some(format!("shard {}: {e}", self.shard)));
                }
                Err(e)
            }
        }
    }

    /// The one mapping from a shard call's outcome to the wire response
    /// the router merges: rejections keep their type, a server or
    /// protocol error stays a server error, and anything else (the
    /// transport gave out, retries and failover included) is the typed
    /// `SHARD_UNAVAILABLE` naming this shard.
    fn answer<T>(&self, outcome: ClientResult<T>, reply: impl FnOnce(T) -> Reply) -> Response {
        match outcome {
            Ok(v) => Response::Ok(reply(v)),
            Err(ClientError::Overloaded) => Response::Overloaded,
            Err(ClientError::NotPrimary(addr)) => Response::NotPrimary(addr),
            Err(ClientError::DiskFull) => Response::DiskFull,
            Err(e @ (ClientError::Server(_) | ClientError::Protocol(_))) => {
                Response::Err(e.to_string())
            }
            Err(e) => Response::ShardUnavailable(self.shard, format!("shard {}: {e}", self.shard)),
        }
    }

    fn pin_inner(inner: &mut Inner) -> ClientResult<()> {
        let pin = inner.client.snapshot_pin()?;
        inner.pin = Some(pin);
        Ok(())
    }

    /// The snapshot pin operations currently run against.
    fn current_pin(&self) -> Option<PinReply> {
        self.lock().pin.clone()
    }

    /// Pins the shard's latest snapshot; subsequent counts and row pulls
    /// answer from it.  Returns the new pin.
    fn repin(&self) -> ClientResult<PinReply> {
        self.call(|c| c.snapshot_pin()).inspect(|pin| {
            self.lock().pin = Some(pin.clone());
        })
    }

    /// The current pin's epoch, pinning first when there is none.
    fn pinned_epoch(&self) -> ClientResult<u64> {
        match self.current_pin() {
            Some(pin) => Ok(pin.epoch),
            None => Ok(self.repin()?.epoch),
        }
    }

    /// Batched counting against the current pin, re-pinning once if the
    /// shard evicted it.
    fn count_many_pinned(&self, itemsets: &[Vec<u32>], tau: Option<u64>) -> ClientResult<Vec<u64>> {
        for _ in 0..2 {
            let epoch = self.pinned_epoch()?;
            match self.call(|c| c.count_many_at(epoch, itemsets, tau)) {
                Ok(reply) => return Ok(reply.supports),
                Err(ClientError::Server(msg)) if msg.starts_with("stale pin") => {
                    self.repin()?;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::Protocol(format!(
            "shard {}: pin went stale twice in a row",
            self.shard
        )))
    }

    /// Pulls every transaction of the current pin, in row order, chunked
    /// under the server's per-reply row and byte budgets.
    fn pull_rows(&self) -> ClientResult<Vec<(u64, Vec<u32>)>> {
        const CHUNK: u32 = 8192;
        let mut txns: Vec<(u64, Vec<u32>)> = Vec::new();
        loop {
            let epoch = self.pinned_epoch()?;
            let from = txns.len() as u64;
            match self.call(|c| c.rows(epoch, from, CHUNK)) {
                Ok(reply) => {
                    if txns.is_empty() && reply.total == 0 {
                        return Ok(txns);
                    }
                    if reply.txns.is_empty() && from < reply.total {
                        return Err(ClientError::Protocol(format!(
                            "shard {}: empty rows reply at {from}/{}",
                            self.shard, reply.total
                        )));
                    }
                    txns.extend(reply.txns);
                    if txns.len() as u64 >= reply.total {
                        return Ok(txns);
                    }
                }
                Err(ClientError::Server(msg)) if msg.starts_with("stale pin") => {
                    // The pin died (eviction or failover): re-pin and
                    // restart the pull — a half-pulled row set from one
                    // snapshot must not be extended from another.
                    self.repin()?;
                    txns.clear();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Converts a wire-layer error into the `io::Result` seam the gather
/// layer speaks.
fn to_io(e: ClientError) -> io::Error {
    match e {
        ClientError::Io(io) => io,
        other => io::Error::other(other.to_string()),
    }
}

/// A remote shard at the pin its handle just took.  Counts and row pulls
/// run against the handle's current pin, re-pinning once if the shard
/// evicted it, so the τ scheme's re-queries patch the same snapshot.
pub struct RemotePin<'a> {
    handle: &'a RemoteShardHandle,
    pin: PinReply,
}

impl ShardHandle for RemotePin<'_> {
    fn rows(&self) -> u64 {
        self.pin.rows
    }

    fn count_many(&self, itemsets: &[Itemset], tau: Option<u64>) -> io::Result<Vec<u64>> {
        let sets: Vec<Vec<u32>> = itemsets
            .iter()
            .map(|s| s.items().iter().map(|i| i.0).collect())
            .collect();
        self.handle.count_many_pinned(&sets, tau).map_err(to_io)
    }
}

impl PinnedShard for RemotePin<'_> {
    fn epoch(&self) -> u64 {
        self.pin.epoch
    }

    /// Pulls the pinned rows and rebuilds the shard's index in memory at
    /// the topology's width and hash family.
    fn load(&self) -> io::Result<(TransactionDb, Bbs)> {
        let h = self.handle;
        let hasher = hasher_for_id(&h.hasher).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "cannot mine through hasher {:?}: no local construction for this identity",
                    h.hasher
                ),
            )
        })?;
        let mut db = TransactionDb::new();
        let mut bbs = Bbs::new(h.width, hasher);
        let mut stats = IoStats::new();
        for (tid, items) in h.pull_rows().map_err(to_io)? {
            let txn = Transaction::new(tid, Itemset::from_values(&items));
            bbs.insert(&txn, &mut stats);
            db.push(txn);
        }
        Ok((db, bbs))
    }

    fn probe(&self, row: u64) -> io::Result<Option<(u64, Vec<u32>)>> {
        let reply = self
            .handle
            .call(|c| c.rows(self.pin.epoch, row, 1))
            .map_err(to_io)?;
        Ok(reply.txns.into_iter().next())
    }
}

impl ShardBackend for RemoteShardHandle {
    type Tier = Topology;
    type Options = CoordinatorOptions;
    type Pinned<'a> = RemotePin<'a>;

    /// Connects to every shard in the topology, in parallel, checking
    /// each one's width and hasher at connect.
    fn connect_all(
        topology: &Topology,
        opts: CoordinatorOptions,
    ) -> io::Result<(Vec<Self>, usize)> {
        let shards: Vec<usize> = (0..topology.shards).collect();
        let handles = scatter(&shards, |_, &i| {
            RemoteShardHandle::connect(topology, i, opts.remote.clone())
        })?;
        Ok((handles, opts.mine_threads))
    }

    fn pin(&self) -> io::Result<RemotePin<'_>> {
        let pin = self.repin().map_err(to_io)?;
        Ok(RemotePin { handle: self, pin })
    }

    fn pin_all(shards: &[Self]) -> io::Result<Vec<RemotePin<'_>>> {
        let indices: Vec<usize> = (0..shards.len()).collect();
        scatter(&indices, |_, &i| shards[i].pin())
    }

    fn insert(&self, req_id: u64, txns: &[(u64, Vec<u32>)]) -> Response {
        self.answer(self.call(|c| c.insert_with_id(req_id, txns)), |r| {
            Reply::Insert {
                first_row: r.first_row,
                appended: r.appended,
                epoch: r.epoch,
                deduped: r.deduped,
            }
        })
    }

    fn delete(&self, req_id: u64, tids: &[u64]) -> Response {
        self.answer(self.call(|c| c.delete_with_id(req_id, tids)), |r| {
            Reply::Delete {
                deleted: r.deleted,
                epoch: r.epoch,
                deduped: r.deduped,
            }
        })
    }

    /// Compaction and folds swap the shard's snapshot (the server evicts
    /// every pin), so any action that may rewrite files drops the local
    /// pin: the next pinned read re-pins the post-swap snapshot instead
    /// of burning its one stale-pin retry.  The topology's `width` stays
    /// what it was at connect; counting and mining remain correct, but a
    /// *new* coordinator is refused until the topology file is updated.
    fn maintain(&self, action: u8, arg: u64) -> Response {
        let out = self.call(|c| c.maintain(action, arg));
        if out.is_ok() && action != maintain_action::PROBE_FPR {
            self.lock().pin = None;
        }
        self.answer(out, |r| Reply::Maintain {
            action_taken: r.action_taken,
            width: r.width,
            live_rows: r.live_rows,
            deleted_rows: r.deleted_rows,
            fpr_bits: r.fpr.to_bits(),
        })
    }

    /// The message recorded when this shard became unreachable (cleared
    /// by the next successful call).
    fn unavailable(&self) -> Option<String> {
        self.unavailable
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn faults(&self) -> &ShardFaults {
        &self.faults
    }

    fn last_pin(&self) -> PinReply {
        self.current_pin().unwrap_or(PinReply {
            epoch: 0,
            rows: 0,
            width: 0,
            hasher: String::new(),
        })
    }

    /// Marks the document a coordinator's and adds the topology version,
    /// its pinned width and every shard's serving address.
    fn tier_stats(topology: &Topology, shards: &[Self]) -> Vec<String> {
        vec![
            "\"coordinator\":true".to_string(),
            format!("\"topology_version\":{}", topology.version),
            format!("\"width\":{}", topology.width),
            json_array(
                "shard_addrs",
                shards.iter().map(|h| format!("\"{}\"", h.addr())),
            ),
        ]
    }
}
