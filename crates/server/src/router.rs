//! The shard router: one [`Router`] in front of N shards, written once
//! for every tier that splits the index by rows.
//!
//! A BBS count is a sum over rows, so a deployment partitions its rows by
//! TID residue ([`bbs_shard::route`]) and merges answers by addition.  The
//! router owns everything that argument needs, and a [`ShardBackend`]
//! supplies only the way to reach one shard: a local [`crate::Engine`]
//! ([`crate::sharded::LocalShard`]) or a shard server over the wire
//! (`bbs_remote::RemoteShardHandle`).
//!
//! * **insert / delete** partition the batch by TID residue and send each
//!   part to its owning shard **reusing the client's request ID**.  Every
//!   shard deduplicates on its own, so a retry after a partial failure
//!   (some shards committed, some overloaded) re-sends the same
//!   partition, the committed shards answer from their exactly-once
//!   windows, and the remainder appends: the deployment converges to
//!   exactly-once without cross-shard coordination.  The per-shard
//!   answers merge by [`merge`], one severity ladder for every write.
//! * **count / count_many** pin every shard, scatter the whole batch
//!   through [`count_many_sharded`] and sum: exact, because the shards
//!   partition the rows and share one width and hash family.
//! * **mine** pins and loads every shard, merges the vocabulary and the
//!   singleton supports, deals candidate subtrees across workers with
//!   supports merged across shards inside every `CountItemSet` (via
//!   [`ShardedCounter`] over in-memory shard indexes), then refines the
//!   uncertain candidates with one scan per shard.  The patterns,
//!   supports and approx markers are bit-for-bit what one unsharded
//!   engine returns over the same rows.
//! * **probe** addresses the concatenated row space: shard 0's rows
//!   first, then shard 1's, and so on.
//!
//! A shard that cannot be reached answers with a typed
//! `SHARD_UNAVAILABLE` naming it, never a silently-wrong partial total.
//! Replication and snapshot-pin endpoints are per shard server, so the
//! router rejects them with a typed error.

use crate::client::PinReply;
use crate::engine::{mine_reply, resolve_threads, COUNT_MANY_MAX_WORK};
use crate::metrics::{Histogram, ServerMetrics};
use crate::net::RequestHandler;
use crate::proto::{maintain_action, Reply, Request, Response};
use bbs_core::{Bbs, Scheme};
use bbs_shard::{count_many_sharded, route, scatter, ShardCounter, ShardHandle, ShardedCounter};
use bbs_tdb::{IoStats, ItemId, Itemset, MineResult, SupportThreshold, TransactionDb};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scatter-gather latency (µs) per fan-out endpoint: the time from
/// dispatching a request to every shard until the gathered answer is
/// assembled.  Rendered in the stats document as `"scatter_us"`.
#[derive(Default)]
pub struct ScatterMetrics {
    /// Insert fan-out: partition + parallel per-shard commits + merge.
    pub insert: Histogram,
    /// Delete fan-out: partition + parallel per-shard tombstones + merge.
    pub delete: Histogram,
    /// Single-count fan-out.
    pub count: Histogram,
    /// Batched-count fan-out (whole batch to every shard).
    pub count_many: Histogram,
    /// Mine fan-out: snapshot loads + filter + cross-shard refinement.
    pub mine: Histogram,
    /// Probe routing (single-shard, but addressed globally).
    pub probe: Histogram,
}

impl ScatterMetrics {
    /// Renders the histograms as the stats document's `scatter_us` value.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"insert\":{},\"delete\":{},\"count\":{},\"count_many\":{},\"mine\":{},\"probe\":{}}}",
            self.insert.to_json(),
            self.delete.to_json(),
            self.count.to_json(),
            self.count_many.to_json(),
            self.mine.to_json(),
            self.probe.to_json()
        )
    }
}

/// Per-shard fault counters, rendered next to the `scatter_us`
/// histograms in the stats document.  A local shard only ever bumps
/// `scatter_errors` (there is no wire to time out on and no follower to
/// fail over to); a remote shard bumps all three.
#[derive(Default)]
pub struct ShardFaults {
    /// Scatter legs that returned an error for this shard.
    pub scatter_errors: AtomicU64,
    /// Scatter legs that exhausted their per-request timeout waiting on
    /// this shard.
    pub timeouts: AtomicU64,
    /// Times this shard was re-pointed at its replication follower after
    /// the primary went silent.
    pub failovers: AtomicU64,
}

/// Renders `"key":[v0,v1,…]` for the stats document.
pub fn json_array<T: fmt::Display>(key: &str, values: impl IntoIterator<Item = T>) -> String {
    let values: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("\"{key}\":[{}]", values.join(","))
}

/// One shard as the router reaches it.  Writes answer with the wire
/// [`Response`] the shard (or its transport) produced, so the router
/// merges one outcome type whatever the tier.
pub trait ShardBackend: Send + Sync + Sized + 'static {
    /// Tier-wide state the router keeps: the local deployment directory,
    /// or the remote topology.
    type Tier: Send + Sync + 'static;
    /// What opening the tier takes besides its [`ShardBackend::Tier`].
    type Options;
    /// One pinned snapshot of this shard.
    type Pinned<'a>: PinnedShard
    where
        Self: 'a;

    /// Opens every shard of `tier`, in shard order, and returns them with
    /// the mine worker count (0 = all cores).
    fn connect_all(tier: &Self::Tier, opts: Self::Options) -> io::Result<(Vec<Self>, usize)>;

    /// Pins this shard's latest snapshot.
    fn pin(&self) -> io::Result<Self::Pinned<'_>>;

    /// Pins every shard, in shard order.  A tier whose pins cost a round
    /// trip overrides this to pin in parallel.
    fn pin_all(shards: &[Self]) -> io::Result<Vec<Self::Pinned<'_>>> {
        shards.iter().map(Self::pin).collect()
    }

    /// Commits this shard's part of an insert under `req_id`.
    fn insert(&self, req_id: u64, txns: &[(u64, Vec<u32>)]) -> Response;

    /// Tombstones this shard's part of a delete under `req_id`.
    fn delete(&self, req_id: u64, tids: &[u64]) -> Response;

    /// Runs one maintenance action (see [`maintain_action`]).
    fn maintain(&self, action: u8, arg: u64) -> Response;

    /// Runs after a maintenance fan-out that may have rewritten shard
    /// files (any action but a probe), once every shard succeeded.  The
    /// error says what failed; the client sees "maintenance applied but
    /// <error>".
    fn maintained(_tier: &Self::Tier, _shards: &[Self]) -> io::Result<()> {
        Ok(())
    }

    /// Why this shard is unreachable, when it is.
    fn unavailable(&self) -> Option<String> {
        None
    }

    /// This shard's fault counters.
    fn faults(&self) -> &ShardFaults;

    /// The shard's last known epoch, rows and width, read without a
    /// round trip, for the stats document.
    fn last_pin(&self) -> PinReply;

    /// The tier's own stats-document fields, as `"key":value` fragments.
    fn tier_stats(tier: &Self::Tier, shards: &[Self]) -> Vec<String>;

    /// Stops this shard admitting work when the router drains (a no-op
    /// for shards the router does not own).
    fn drain(&self) {}

    /// Waits for this shard's background work after a drain.
    fn join(&self) {}
}

/// One pinned shard snapshot: counts (through [`ShardHandle`]), loads
/// and probes all answer from the same cut.
pub trait PinnedShard: ShardHandle {
    /// The pinned epoch.
    fn epoch(&self) -> u64;

    /// The pinned rows and their index, in memory, for the mine.
    fn load(&self) -> io::Result<(TransactionDb, Bbs)>;

    /// One pinned row, `None` past the end.
    fn probe(&self, row: u64) -> io::Result<Option<(u64, Vec<u32>)>>;
}

/// An in-memory per-shard counter for the mine path: answers are the
/// shard's exact BBS estimates (an exact answer satisfies every τ
/// budget), so the cross-shard sums are exactly the global estimates.
struct MemShard<'a> {
    bbs: &'a Bbs,
}

impl ShardCounter for MemShard<'_> {
    fn count(&mut self, itemset: &Itemset, _tau: Option<u64>) -> io::Result<u64> {
        Ok(self.bbs.est_count(itemset, &mut IoStats::new()))
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        _tau: Option<u64>,
    ) -> io::Result<Vec<u64>> {
        let mut io = IoStats::new();
        Ok(extensions
            .iter()
            .map(|&e| self.bbs.est_count(&prefix.with_item(e), &mut io))
            .collect())
    }
}

fn micros(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// One logical server over N TID-residue shards.
pub struct Router<B: ShardBackend> {
    tier: B::Tier,
    shards: Vec<B>,
    metrics: Arc<ServerMetrics>,
    scatter: ScatterMetrics,
    draining: AtomicBool,
    mine_threads: usize,
}

impl<B: ShardBackend> fmt::Debug for Router<B>
where
    B::Tier: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("tier", &self.tier)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl<B: ShardBackend> Router<B> {
    /// Opens (or connects to) every shard of `tier` and fronts them.
    pub fn connect(tier: B::Tier, opts: B::Options) -> io::Result<Arc<Self>> {
        let (shards, mine_threads) = B::connect_all(&tier, opts)?;
        Ok(Arc::new(Router {
            tier,
            shards,
            metrics: Arc::new(ServerMetrics::new()),
            scatter: ScatterMetrics::default(),
            draining: AtomicBool::new(false),
            mine_threads,
        }))
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[B] {
        &self.shards
    }

    /// The router's scatter-gather latency histograms.
    pub fn scatter_metrics(&self) -> &ScatterMetrics {
        &self.scatter
    }

    /// A failed read becomes the typed `SHARD_UNAVAILABLE` naming an
    /// unreachable shard, or else a plain server error.
    fn fail(&self, what: &str, e: io::Error) -> Response {
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(msg) = shard.unavailable() {
                return Response::ShardUnavailable(i as u32, msg);
            }
        }
        Response::Err(format!("{what} failed: {e}"))
    }

    /// Scatter-gather batched counting over one fresh pin per shard.
    /// Returns `(supports, epoch, rows)`: `epoch` is the sum of the
    /// per-shard epochs (monotonic under any shard commit) and `rows` the
    /// total, both from the pins the counts ran against.
    pub fn count_many(&self, itemsets: &[Vec<u32>]) -> io::Result<(Vec<u64>, u64, u64)> {
        let start = Instant::now();
        let sets: Vec<Itemset> = itemsets.iter().map(|s| Itemset::from_values(s)).collect();
        let pins = B::pin_all(&self.shards)?;
        let epoch = pins.iter().map(|p| p.epoch()).sum();
        let rows = pins.iter().map(|p| p.rows()).sum();
        let supports = count_many_sharded(&pins, &sets, None)?;
        let hist = if itemsets.len() == 1 {
            &self.scatter.count
        } else {
            &self.scatter.count_many
        };
        hist.record(micros(start));
        Ok((supports, epoch, rows))
    }

    /// Partitions `items` by TID residue, sends each part to its owning
    /// shard in parallel, and merges the answers.  An empty batch
    /// answers `empty(rows, epoch)` from fresh pins.
    fn write<T: Clone + Send + Sync>(
        &self,
        what: &str,
        hist: &Histogram,
        items: &[T],
        tid: fn(&T) -> u64,
        send: impl Fn(&B, &[T]) -> Response + Sync,
        empty: impl FnOnce(u64, u64) -> Reply,
    ) -> Response {
        if self.is_draining() {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            return Response::Overloaded;
        }
        if items.is_empty() {
            return match B::pin_all(&self.shards) {
                Ok(pins) => Response::Ok(empty(
                    pins.iter().map(|p| p.rows()).sum(),
                    pins.iter().map(|p| p.epoch()).sum(),
                )),
                Err(e) => self.fail(what, e),
            };
        }
        let start = Instant::now();
        let n = self.shards.len();
        let mut parts: Vec<Vec<T>> = vec![Vec::new(); n];
        for item in items {
            parts[route(tid(item), n)].push(item.clone());
        }
        let jobs: Vec<(usize, Vec<T>)> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .collect();
        let outcomes = scatter(&jobs, |_, (shard, part)| {
            Ok((*shard, send(&self.shards[*shard], part)))
        })
        .expect("shard write scatter is infallible");
        let merged = merge(outcomes);
        hist.record(micros(start));
        merged
    }

    /// Routes a batch by TID residue, reusing `req_id` on every shard so
    /// a retry after a partial failure converges instead of duplicating.
    pub fn insert(&self, req_id: u64, txns: &[(u64, Vec<u32>)]) -> Response {
        self.write(
            "insert",
            &self.scatter.insert,
            txns,
            |(tid, _)| *tid,
            |shard, part| shard.insert(req_id, part),
            |rows, epoch| Reply::Insert {
                first_row: rows,
                appended: 0,
                epoch,
                deduped: false,
            },
        )
    }

    /// Routes a tombstone delete like an insert, with the same per-shard
    /// reuse of `req_id`.
    pub fn delete(&self, req_id: u64, tids: &[u64]) -> Response {
        self.write(
            "delete",
            &self.scatter.delete,
            tids,
            |tid| *tid,
            |shard, part| shard.delete(req_id, part),
            |_, epoch| Reply::Delete {
                deleted: 0,
                epoch,
                deduped: false,
            },
        )
    }

    /// Fans one maintenance action out to every shard and merges the
    /// health reports (see [`merge`]); an action that may rewrite files
    /// then runs the tier's [`ShardBackend::maintained`] step.
    pub fn maintain(&self, action: u8, arg: u64) -> Response {
        let outcomes = scatter(&self.shards, |i, shard| {
            Ok((i, shard.maintain(action, arg)))
        })
        .expect("shard maintain scatter is infallible");
        let merged = merge(outcomes);
        if matches!(&merged, Response::Ok(Reply::Maintain { action_taken, .. })
            if *action_taken != maintain_action::PROBE_FPR)
        {
            if let Err(e) = B::maintained(&self.tier, &self.shards) {
                return Response::Err(format!("maintenance applied but {e}"));
            }
        }
        merged
    }

    /// Mines the union of all shards at one pin each.  Candidate subtrees
    /// are dealt across `threads` workers and each worker merges supports
    /// across every shard before any prune decision, so the patterns,
    /// supports and approx markers are bit-for-bit what the unsharded
    /// engine returns over the same transactions.
    pub fn mine(
        &self,
        scheme: Scheme,
        threshold: SupportThreshold,
        threads: usize,
    ) -> io::Result<(MineResult, u64, u64)> {
        let start = Instant::now();
        let threads = if threads == 0 {
            resolve_threads(self.mine_threads)
        } else {
            threads
        };
        let pins = B::pin_all(&self.shards)?;
        let epoch: u64 = pins.iter().map(|p| p.epoch()).sum();
        let loaded = scatter(&pins, |_, pin| pin.load())?;
        let shard_rows: Vec<u64> = loaded.iter().map(|(db, _)| db.len() as u64).collect();
        let rows: u64 = shard_rows.iter().sum();
        let tau = threshold.resolve(rows as usize);

        // Global vocabulary and exact singleton supports: sums over the
        // disjoint TID partition equal the unsharded values exactly.
        let mut actuals: HashMap<ItemId, u64> = HashMap::new();
        for (_, bbs) in &loaded {
            for item in bbs.vocabulary() {
                *actuals.entry(item).or_insert(0) += bbs.actual_singleton_count(item);
            }
        }
        let mut vocab: Vec<ItemId> = actuals.keys().copied().collect();
        vocab.sort_unstable();

        let make_source = || {
            Ok(ShardedCounter::new(
                loaded.iter().map(|(_, bbs)| MemShard { bbs }).collect(),
                shard_rows.clone(),
            ))
        };
        let filter_out = bbs_core::run_filter_source_threaded(
            make_source,
            &vocab,
            &actuals,
            rows,
            scheme.filter(),
            tau,
            threads,
        )?;

        let mut result = MineResult::default();
        result.stats.candidates = filter_out.stats.candidates;
        result.stats.false_drops = filter_out.stats.false_drops;
        result.stats.certified = filter_out.stats.certified;
        result.stats.bbs_counts = filter_out.stats.bbs_counts;
        result.stats.io.merge(&filter_out.stats.io);
        result.patterns.extend_from(&filter_out.frequent);
        for (items, count) in filter_out.approx.iter() {
            result.patterns.insert(items.clone(), count);
            result.approx_supports.insert(items.clone());
        }

        if !filter_out.uncertain.is_empty() {
            // Global support merge before refinement verdicts: one scan
            // per shard (in parallel), then column sums decide.
            let cands: Vec<Itemset> = filter_out
                .uncertain
                .iter()
                .map(|(items, _)| items.clone())
                .collect();
            let per_shard = scatter(&loaded, |_, (db, _)| {
                let mut counts = vec![0u64; cands.len()];
                for txn in db.transactions() {
                    for (items, count) in cands.iter().zip(counts.iter_mut()) {
                        if items.is_subset_of(&txn.items) {
                            *count += 1;
                        }
                    }
                }
                Ok(counts)
            })?;
            for (k, items) in cands.into_iter().enumerate() {
                let count: u64 = per_shard.iter().map(|c| c[k]).sum();
                if count >= tau {
                    result.patterns.insert(items, count);
                } else {
                    result.stats.false_drops += 1;
                }
            }
        }
        self.scatter.mine.record(micros(start));
        Ok((result, epoch, rows))
    }

    /// Probes one row of the concatenated row space: rows `0..r0` live on
    /// shard 0, `r0..r0+r1` on shard 1, and so on, at one pin each.
    pub fn probe(&self, row: u64) -> io::Result<Option<(u64, Vec<u32>)>> {
        let start = Instant::now();
        let mut local = row;
        let mut found = Ok(None);
        for pin in B::pin_all(&self.shards)? {
            if local < pin.rows() {
                found = pin.probe(local);
                break;
            }
            local -= pin.rows();
        }
        self.scatter.probe.record(micros(start));
        found
    }

    /// Renders the stats document: router wire metrics, the tier's own
    /// fields, the shard topology (count, per-shard rows and widths), the
    /// scatter-gather latency histograms and the per-shard fault
    /// counters.
    pub fn stats_json(&self) -> String {
        let pins: Vec<PinReply> = self.shards.iter().map(B::last_pin).collect();
        let faults = |pick: fn(&ShardFaults) -> &AtomicU64| {
            self.shards
                .iter()
                .map(move |s| pick(s.faults()).load(Ordering::Relaxed))
        };
        let mut extra = B::tier_stats(&self.tier, &self.shards);
        extra.extend([
            format!("\"shards\":{}", self.shards.len()),
            format!("\"rows\":{}", pins.iter().map(|p| p.rows).sum::<u64>()),
            format!("\"epoch\":{}", pins.iter().map(|p| p.epoch).sum::<u64>()),
            json_array("shard_rows", pins.iter().map(|p| p.rows)),
            json_array("shard_width", pins.iter().map(|p| p.width)),
            format!("\"scatter_us\":{}", self.scatter.to_json()),
            format!("\"draining\":{}", self.is_draining()),
            json_array("scatter_errors", faults(|f| &f.scatter_errors)),
            json_array("timeouts", faults(|f| &f.timeouts)),
            json_array("failovers", faults(|f| &f.failovers)),
        ]);
        self.metrics.to_json(&extra)
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Ok(Reply::Pong),
            Request::Count { items } => match self.count_many(std::slice::from_ref(items)) {
                Ok((supports, epoch, rows)) => Response::Ok(Reply::Count {
                    support: supports[0],
                    epoch,
                    rows,
                }),
                Err(e) => self.fail("count", e),
            },
            Request::CountMany { itemsets } => {
                let work: usize = itemsets.iter().map(|s| s.len().max(1)).sum();
                if work > COUNT_MANY_MAX_WORK {
                    self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                    return Response::Overloaded;
                }
                self.metrics.count_many_batch.record(itemsets.len() as u64);
                match self.count_many(itemsets) {
                    Ok((supports, epoch, rows)) => Response::Ok(Reply::CountMany {
                        supports,
                        epoch,
                        rows,
                    }),
                    Err(e) => self.fail("count_many", e),
                }
            }
            Request::Insert { req_id, txns } => self.insert(*req_id, txns),
            Request::Delete { req_id, tids } => self.delete(*req_id, tids),
            Request::Maintain { action, arg } => self.maintain(*action, *arg),
            Request::Mine {
                scheme,
                threshold,
                threads,
            } => match self.mine(*scheme, *threshold, usize::from(*threads)) {
                Ok((result, epoch, rows)) => Response::Ok(mine_reply(&result, epoch, rows)),
                Err(e) => self.fail("mine", e),
            },
            Request::Probe { row } => match self.probe(*row) {
                Ok(txn) => Response::Ok(Reply::Probe { txn }),
                Err(e) => self.fail("probe", e),
            },
            Request::Stats => Response::Ok(Reply::Stats {
                json: self.stats_json(),
            }),
            Request::Shutdown => {
                self.begin_drain();
                Response::Ok(Reply::ShuttingDown)
            }
            Request::Replicate { .. }
            | Request::Promote
            | Request::SnapshotPin
            | Request::CountManyAt { .. }
            | Request::Rows { .. } => Response::Err(
                "replication and snapshot-pin endpoints are not served by a shard router; \
                 address each shard server directly"
                    .into(),
            ),
        }
    }
}

impl<B: ShardBackend> RequestHandler for Router<B> {
    fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        let opcode = req.opcode();
        if let Some(ep) = self.metrics.endpoint(opcode) {
            ep.requests.fetch_add(1, Ordering::Relaxed);
        }
        let resp = self.dispatch(req);
        if let Some(ep) = self.metrics.endpoint(opcode) {
            ep.latency_us.record(micros(start));
            if matches!(resp, Response::Err(_) | Response::ShardUnavailable(_, _)) {
                ep.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        resp
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.drain();
        }
    }

    fn join(&self) {
        self.begin_drain();
        for shard in &self.shards {
            shard.join();
        }
    }

    fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }
}

/// Rank of a shard's answer on the severity ladder
/// `Ok < Overloaded < NotPrimary < DiskFull < Err < ShardUnavailable`.
fn severity(resp: &Response) -> u8 {
    match resp {
        Response::Ok(_) => 0,
        Response::Overloaded => 1,
        Response::NotPrimary(_) => 2,
        Response::DiskFull => 3,
        Response::Err(_) | Response::BadFrame(_) => 4,
        Response::ShardUnavailable(_, _) => 5,
    }
}

/// Folds `next` into `acc` when both are the same write receipt:
/// inserts and deletes sum their rows, keep the first shard's
/// `first_row`, take the highest epoch and stay `deduped` only while
/// every shard deduped; maintenance reports take the most consequential
/// action, the widest width, the summed rows and the worst FPR.  A
/// mismatched reply comes back as the error.
fn absorb(acc: &mut Reply, next: Reply) -> Result<(), Reply> {
    match (acc, next) {
        (
            Reply::Insert {
                appended,
                epoch,
                deduped,
                ..
            },
            Reply::Insert {
                appended: n,
                epoch: e,
                deduped: d,
                ..
            },
        )
        | (
            Reply::Delete {
                deleted: appended,
                epoch,
                deduped,
            },
            Reply::Delete {
                deleted: n,
                epoch: e,
                deduped: d,
            },
        ) => {
            *appended += n;
            *epoch = (*epoch).max(e);
            *deduped &= d;
        }
        (
            Reply::Maintain {
                action_taken,
                width,
                live_rows,
                deleted_rows,
                fpr_bits,
            },
            Reply::Maintain {
                action_taken: a,
                width: w,
                live_rows: l,
                deleted_rows: d,
                fpr_bits: f,
            },
        ) => {
            *action_taken = (*action_taken).max(a);
            *width = (*width).max(w);
            *live_rows += l;
            *deleted_rows += d;
            if f64::from_bits(f) > f64::from_bits(*fpr_bits) {
                *fpr_bits = f;
            }
        }
        (_, other) => return Err(other),
    }
    Ok(())
}

/// Merges per-shard answers (`(shard, response)` in shard order) into the
/// client's one receipt.  Any failure wins by [`severity`], the first
/// shard's among equals, with a server error tagged by its shard index;
/// when every shard succeeded, the receipts fold by [`absorb`].
pub fn merge(outcomes: Vec<(usize, Response)>) -> Response {
    let mut merged: Option<Reply> = None;
    let mut worst: Option<Response> = None;
    for (shard, resp) in outcomes {
        let resp = match resp {
            Response::Ok(reply) => match &mut merged {
                None => {
                    merged = Some(reply);
                    continue;
                }
                Some(acc) => match absorb(acc, reply) {
                    Ok(()) => continue,
                    Err(other) => Response::Err(format!("unexpected reply {other:?}")),
                },
            },
            other => other,
        };
        let resp = match resp {
            Response::Err(msg) => Response::Err(format!("shard {shard}: {msg}")),
            other => other,
        };
        if worst.as_ref().is_none_or(|w| severity(&resp) > severity(w)) {
            worst = Some(resp);
        }
    }
    match (worst, merged) {
        (Some(resp), _) => resp,
        (None, Some(reply)) => Response::Ok(reply),
        (None, None) => Response::Err("no shard answered".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(first_row: u64, appended: u64, epoch: u64, deduped: bool) -> Response {
        Response::Ok(Reply::Insert {
            first_row,
            appended,
            epoch,
            deduped,
        })
    }

    fn maintain(action_taken: u8, width: u32, live: u64, dead: u64, fpr: f64) -> Response {
        Response::Ok(Reply::Maintain {
            action_taken,
            width,
            live_rows: live,
            deleted_rows: dead,
            fpr_bits: fpr.to_bits(),
        })
    }

    fn merged(outcomes: Vec<Response>) -> Response {
        merge(outcomes.into_iter().enumerate().collect())
    }

    #[test]
    fn committed_receipts_sum_rows_and_keep_the_first_row() {
        let cases = [
            // (receipts, want appended, want epoch, want first_row, want deduped)
            (vec![insert(7, 3, 4, false)], 3, 4, 7, false),
            (
                vec![insert(7, 3, 4, true), insert(2, 5, 9, true)],
                8,
                9,
                7,
                true,
            ),
            (
                vec![insert(1, 3, 9, true), insert(0, 5, 2, false)],
                8,
                9,
                1,
                false,
            ),
            (
                vec![
                    insert(4, 1, 1, false),
                    insert(3, 1, 6, true),
                    insert(9, 2, 3, true),
                ],
                4,
                6,
                4,
                false,
            ),
        ];
        for (receipts, appended, epoch, first_row, deduped) in cases {
            assert_eq!(
                merged(receipts.clone()),
                insert(first_row, appended, epoch, deduped),
                "{receipts:?}"
            );
        }
        let deletes = vec![
            Response::Ok(Reply::Delete {
                deleted: 2,
                epoch: 5,
                deduped: true,
            }),
            Response::Ok(Reply::Delete {
                deleted: 3,
                epoch: 4,
                deduped: true,
            }),
        ];
        assert_eq!(
            merged(deletes),
            Response::Ok(Reply::Delete {
                deleted: 5,
                epoch: 5,
                deduped: true,
            })
        );
    }

    #[test]
    fn every_rank_pair_on_the_ladder_resolves_to_the_worse() {
        let ladder = [
            insert(0, 1, 1, false),
            Response::Overloaded,
            Response::NotPrimary("10.0.0.1:7".into()),
            Response::DiskFull,
            Response::Err("boom".into()),
            Response::ShardUnavailable(1, "shard 1: gone".into()),
        ];
        let tagged = |resp: &Response, shard: usize| match resp {
            Response::Err(msg) => Response::Err(format!("shard {shard}: {msg}")),
            other => other.clone(),
        };
        for (lo, low) in ladder.iter().enumerate() {
            for (hi, high) in ladder.iter().enumerate().skip(lo + 1) {
                let want = tagged(high, 1);
                assert_eq!(merged(vec![low.clone(), high.clone()]), want, "{lo} < {hi}");
                let want = tagged(high, 0);
                assert_eq!(merged(vec![high.clone(), low.clone()]), want, "{hi} > {lo}");
            }
        }
    }

    #[test]
    fn a_server_error_names_its_shard() {
        let outcomes = vec![
            (0, insert(0, 1, 1, false)),
            (2, Response::Err("disk on fire".into())),
            (3, Response::Err("second".into())),
        ];
        assert_eq!(
            merge(outcomes),
            Response::Err("shard 2: disk on fire".into())
        );
    }

    #[test]
    fn maintenance_reports_take_the_worst_shard() {
        let cases = [
            (
                vec![maintain(0, 64, 10, 2, 0.25)],
                maintain(0, 64, 10, 2, 0.25),
            ),
            (
                vec![maintain(0, 64, 10, 2, 0.25), maintain(1, 128, 5, 0, 0.5)],
                maintain(1, 128, 15, 2, 0.5),
            ),
            (
                vec![
                    maintain(2, 32, 1, 1, 0.75),
                    maintain(0, 64, 2, 2, 0.125),
                    maintain(1, 16, 3, 3, 0.0),
                ],
                maintain(2, 64, 6, 6, 0.75),
            ),
        ];
        for (reports, want) in cases {
            assert_eq!(merged(reports.clone()), want, "{reports:?}");
        }
    }

    #[test]
    fn mismatched_replies_are_an_error() {
        let resp = merged(vec![insert(0, 1, 1, false), Response::Ok(Reply::Pong)]);
        assert!(
            matches!(&resp, Response::Err(msg) if msg.starts_with("shard 1: unexpected reply")),
            "{resp:?}"
        );
    }
}
