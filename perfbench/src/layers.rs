//! The traced run's per-layer rows: each layer's public entry point timed
//! from outside on the workload's own rows and queries, so that a layer's
//! cost is the gap between two rows.  Every call is also a span.

use crate::deploy::{self, connect, io_err, server_config, Served, CACHE_PAGES, WIDTH};
use crate::oracle::{itemset, wire_rows, Query};
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::Samples;
use crate::workload::{mine_request, Pool};
use bbs_apriori::AprioriMiner;
use bbs_bitslice::ops_simd;
use bbs_core::BbsMiner;
use bbs_fptree::FpGrowthMiner;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_server::{Engine, InsertOutcome, Reply, Request, RequestHandler, Response, ShardedEngine};
use bbs_shard::ShardedDeployment;
use bbs_storage::{
    BackendFactory, DiskBbs, DynBackend, FileBackend, SharedDeployment, StorageBackend,
};
use bbs_tdb::{FrequentPatternMiner, Itemset, SupportThreshold, Transaction, TransactionDb};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Passes over the query list per layer (the reported value is the
/// median over every call of every pass).
const PASSES: usize = 3;
/// Queries timed per layer.
const MAX_QUERIES: usize = 512;
/// Repetitions of the expensive calls (mines, loads, pulls).
const HEAVY_REPS: usize = 3;
/// The deployment's files, as the backend factory names them.
const FILES: [&str; 8] = [
    "commit", "dat", "idx", "slices", "counts", "dedup", "log", "del",
];

/// One write the commit-path replay re-applies.
pub enum Write {
    Insert(Vec<Transaction>),
    Delete(Vec<u64>),
}

/// What the layer sweep runs on.
pub struct Inputs<'a> {
    /// The rows the read layers see (the workload's live rows).
    pub rows: &'a [Transaction],
    pub pool: &'a Pool,
    pub tau: f64,
    /// Writes already applied before the replay (not measured).
    pub base: &'a [Write],
    /// The writer's batches, replayed through the commit path.
    pub replay: &'a [Write],
    /// A served single engine holding `rows` (with its files' base path).
    pub single: &'a Served,
    pub single_base: &'a Path,
    /// Unix socket the single engine also listens on.
    pub unix: &'a Path,
}

struct Sweep<'a> {
    tracer: &'a mut Tracer,
    report: &'a mut Report,
    parent: Option<usize>,
}

impl Sweep<'_> {
    /// Times `f` once per call, recording a span named `name` per call.
    fn time<T>(
        &mut self,
        name: &'static str,
        scale: f64,
        samples: &mut Samples,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = black_box(f());
        samples.since(t0, scale);
        let req = samples.len() as u64;
        self.tracer.record(name, t0, self.parent, req);
        out
    }

    /// [`Sweep::time`] after one untimed call, so every row of the
    /// interleaved read stack is timed with its data in the CPU caches.
    fn time_warm<T>(
        &mut self,
        name: &'static str,
        scale: f64,
        samples: &mut Samples,
        mut f: impl FnMut() -> T,
    ) -> T {
        black_box(f());
        self.time(name, scale, samples, f)
    }

    fn put(&mut self, name: &str, s: &Samples, unit: &'static str) {
        self.report.metric(name, s.median(), unit, s.len());
    }
}

fn queries(pool: &Pool) -> Vec<Query> {
    pool.queries[..pool.singles]
        .iter()
        .take(MAX_QUERIES)
        .cloned()
        .collect()
}

fn template_sets(pool: &Pool, t: usize) -> Vec<Query> {
    pool.templates[t]
        .iter()
        .map(|&q| pool.queries[q].clone())
        .collect()
}

/// Runs every layer row.
pub fn measure(
    inp: &Inputs,
    tracer: &mut Tracer,
    report: &mut Report,
    work: &Path,
) -> io::Result<()> {
    let root = tracer.open("layers", None);
    let mut sw = Sweep {
        tracer,
        report,
        parent: Some(root),
    };
    let qs = queries(inp.pool);
    let hasher: Arc<dyn ItemHasher> = Arc::new(Md5BloomHasher::new(4));
    let engine = Arc::clone(&inp.single.engines()[0]);

    // The read stack, interleaved per query so that drift hits every row
    // alike, each row timed warm: the kernel on preloaded slices
    // (bbs-bitslice), a private DiskCounter (the executor), the Snapshot
    // (fence and dead-row mask), Engine::handle, and the client over TCP
    // and a Unix socket.
    let index = DiskBbs::open(inp.single_base, WIDTH, Arc::clone(&hasher), CACHE_PAGES)?;
    let words = (index.rows() as usize).div_ceil(64);
    let mut slices: HashMap<usize, bbs_bitslice::BitVec> = HashMap::new();
    let mut positions = Vec::with_capacity(qs.len());
    for q in &qs {
        let pos = index.query_positions(&itemset(q));
        for &p in &pos {
            if let std::collections::hash_map::Entry::Vacant(e) = slices.entry(p) {
                e.insert(index.load_slice(p)?);
            }
        }
        positions.push(pos);
    }
    let mut counter = index.counter()?;
    let snap = engine.snapshot();
    let mut tcp = connect(inp.single.addr())?;
    let mut unix = bbs_server::Client::connect_unix(inp.unix).map_err(io_err)?;
    let mut rows: [Samples; 7] = Default::default();
    let mut bytes = Samples::default();
    for _ in 0..PASSES {
        for (q, pos) in qs.iter().zip(&positions) {
            let set = itemset(q);
            let srcs: Vec<&[u64]> = pos.iter().map(|p| slices[p].words()).collect();
            bytes.push((srcs.len() * words * 8) as f64);
            sw.time_warm("bitslice.and_count", 1e9, &mut rows[0], || {
                ops_simd::and_all_count_bounded(&srcs, words, None)
            });
            sw.time_warm("storage.counter.count", 1e9, &mut rows[1], || {
                counter.count(&set, None)
            })?;
            sw.time_warm("storage.snapshot.count", 1e9, &mut rows[2], || {
                snap.count(&set)
            })?;
            let req = Request::Count { items: q.clone() };
            sw.time_warm("server.engine.count", 1e9, &mut rows[3], || {
                engine.handle(&req)
            });
            sw.time_warm("client.count", 1e6, &mut rows[4], || tcp.count(q))
                .map_err(io_err)?;
            sw.time_warm("server.net.unix_count", 1e6, &mut rows[5], || unix.count(q))
                .map_err(io_err)?;
            sw.time_warm("server.net.ping", 1e6, &mut rows[6], || tcp.ping())
                .map_err(io_err)?;
        }
    }
    for (name, s, unit) in [
        ("bitslice.and_count_ns", &rows[0], "ns"),
        ("storage.counter.count_ns", &rows[1], "ns"),
        ("storage.snapshot.count_ns", &rows[2], "ns"),
        ("server.engine.count_ns", &rows[3], "ns"),
        ("client.count_us", &rows[4], "us"),
        ("server.net.unix_count_us", &rows[5], "us"),
        ("server.net.ping_us", &rows[6], "us"),
    ] {
        sw.put(name, s, unit);
    }
    sw.put("bitslice.bytes_per_itemset", &bytes, "B");
    drop(slices);

    let mut many: [Samples; 4] = Default::default();
    for _ in 0..PASSES {
        for t in 0..inp.pool.templates.len() {
            let owned = template_sets(inp.pool, t);
            let sets: Vec<Itemset> = owned.iter().map(|q| itemset(q)).collect();
            let n = sets.len() as f64;
            sw.time_warm("storage.counter.count_many", 1e9 / n, &mut many[0], || {
                counter.count_many(&sets, None)
            })?;
            sw.time_warm("storage.snapshot.count_many", 1e9 / n, &mut many[1], || {
                snap.count_many(&sets)
            })?;
            let req = Request::CountMany {
                itemsets: owned.clone(),
            };
            sw.time_warm("server.engine.count_many", 1e6, &mut many[2], || {
                engine.handle(&req)
            });
            let refs: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
            sw.time_warm("client.count_many", 1e6, &mut many[3], || {
                tcp.count_many(&refs)
            })
            .map_err(io_err)?;
        }
    }
    sw.put("storage.counter.count_many_ns_per_itemset", &many[0], "ns");
    sw.put("storage.snapshot.count_many_ns_per_itemset", &many[1], "ns");
    sw.put("server.engine.count_many_us", &many[2], "us");
    sw.put("client.count_many_us", &many[3], "us");
    drop((counter, index, tcp, unix));

    // bbs-core: the in-memory miner on the snapshot's materialisation.
    let (scheme, threshold) = mine_request(inp.tau);
    let (mut load, mut mine, mut served_mine) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut stats = bbs_tdb::MineStats::default();
    let mine_req = Request::Mine {
        scheme,
        threshold,
        threads: 0,
    };
    let mut mine_reply = None;
    for _ in 0..HEAVY_REPS {
        let (db, bbs) = sw.time("storage.snapshot.load", 1e3, &mut load, || snap.load())?;
        let threads = bbs_server::resolve_threads(engine.config().mine_threads);
        let mut miner = BbsMiner::with_index(scheme, bbs).with_threads(threads);
        stats = sw
            .time("core.mine", 1e3, &mut mine, || miner.mine(&db, threshold))
            .stats;
        mine_reply = Some(sw.time("server.engine.mine", 1e3, &mut served_mine, || {
            engine.handle(&mine_req)
        }));
    }
    sw.put("storage.snapshot.load_ms", &load, "ms");
    sw.put("core.mine_ms", &mine, "ms");
    sw.put("server.engine.mine_ms", &served_mine, "ms");
    for (name, v) in [
        ("core.candidates", stats.candidates),
        ("core.false_drops", stats.false_drops),
        ("core.certified", stats.certified),
        ("core.bbs_counts", stats.bbs_counts),
    ] {
        sw.report.metric(name, v as f64, "count", 1);
    }
    drop(snap);

    // bbs-server's codec: each frame type's request and reply.
    let batch: Vec<(u64, Vec<u32>)> = wire_rows(&inp.rows[..inp.rows.len().min(256)]);
    let frames: Vec<(&str, Request, Response)> = vec![
        (
            "count",
            Request::Count {
                items: qs[0].clone(),
            },
            Response::Ok(Reply::Count {
                support: 1234,
                epoch: 7,
                rows: inp.rows.len() as u64,
            }),
        ),
        (
            "count_many",
            Request::CountMany {
                itemsets: template_sets(inp.pool, 0),
            },
            Response::Ok(Reply::CountMany {
                supports: vec![1234; inp.pool.templates[0].len()],
                epoch: 7,
                rows: inp.rows.len() as u64,
            }),
        ),
        (
            "insert",
            Request::Insert {
                req_id: 9,
                txns: batch,
            },
            Response::Ok(Reply::Insert {
                first_row: 0,
                appended: 256,
                epoch: 7,
                deduped: false,
            }),
        ),
        ("mine", mine_req, mine_reply.expect("mined at least once")),
    ];
    for (frame, req, resp) in &frames {
        let (mut enc, mut dec) = (Samples::default(), Samples::default());
        for _ in 0..200 {
            let t0 = Instant::now();
            let (a, b) = (black_box(req.encode()), black_box(resp.encode()));
            enc.since(t0, 1e9);
            let t0 = Instant::now();
            let ok = Request::decode(&a).is_ok() && Response::decode(&b).is_ok();
            dec.since(t0, 1e9);
            sw.report
                .check(ok, || format!("{frame} frame does not round-trip"));
        }
        sw.put(&format!("server.proto.{frame}.encode_ns"), &enc, "ns");
        sw.put(&format!("server.proto.{frame}.decode_ns"), &dec, "ns");
    }

    // The commit path, twice: SharedDeployment directly, then
    // Engine::with_shared over a byte- and sync-counting backend.
    commit_path(&mut sw, inp, &work.join("commit"), &hasher)?;

    // bbs-shard router and bbs-remote coordinator over 4-shard copies.
    sharded(&mut sw, inp, &work.join("sharded"), &qs)?;
    remote(&mut sw, inp, &work.join("remote"), &qs)?;
    baselines(&mut sw, inp, &qs)?;
    sw.tracer.close(root);
    Ok(())
}

/// Per-file physical write counters.
#[derive(Default)]
struct FileIo {
    syncs: AtomicU64,
    bytes: AtomicU64,
}

struct Counted {
    inner: FileBackend,
    io: Arc<FileIo>,
}

impl StorageBackend for Counted {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.io
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write_at(offset, data)
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.io.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

fn counting_factory(files: &HashMap<&'static str, Arc<FileIo>>) -> BackendFactory {
    let files = files.clone();
    Arc::new(move |tag, path| {
        let io = files.get(tag).cloned().unwrap_or_default();
        Ok(Box::new(Counted {
            inner: FileBackend::open(path)?,
            io,
        }) as DynBackend)
    })
}

fn io_totals(files: &HashMap<&'static str, Arc<FileIo>>) -> HashMap<&'static str, (u64, u64)> {
    files
        .iter()
        .map(|(k, v)| {
            (
                *k,
                (
                    v.syncs.load(Ordering::Relaxed),
                    v.bytes.load(Ordering::Relaxed),
                ),
            )
        })
        .collect()
}

fn commit_path(
    sw: &mut Sweep,
    inp: &Inputs,
    dir: &Path,
    hasher: &Arc<dyn ItemHasher>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let new_files = || {
        FILES
            .iter()
            .map(|f| (*f, Arc::new(FileIo::default())))
            .collect::<HashMap<_, _>>()
    };

    // storage.commit_ms / storage.delete_ms: SharedDeployment directly.
    let files = new_files();
    let shared = SharedDeployment::open_with_factory(
        &dir.join("direct"),
        WIDTH,
        Arc::clone(hasher),
        CACHE_PAGES,
        counting_factory(&files),
    )?;
    let mut req = 0u64;
    for w in inp.base {
        req += 1;
        match w {
            Write::Insert(t) => drop(shared.commit_with(t, &[(req, 0, t.len() as u64)])?),
            Write::Delete(tids) => drop(shared.delete_tids(tids, req)?),
        }
    }
    let (mut commit, mut delete) = (Samples::default(), Samples::default());
    for w in inp.replay {
        req += 1;
        match w {
            Write::Insert(t) => {
                sw.time("storage.commit", 1e3, &mut commit, || {
                    shared.commit_with(t, &[(req, 0, t.len() as u64)])
                })?;
            }
            Write::Delete(tids) => {
                sw.time("storage.delete", 1e3, &mut delete, || {
                    shared.delete_tids(tids, req)
                })?;
            }
        }
    }
    sw.put("storage.commit_ms", &commit, "ms");
    sw.put("storage.delete_ms", &delete, "ms");
    drop(shared);

    // The same batches through Engine::with_shared, with per-file counts.
    let files = new_files();
    let shared = SharedDeployment::open_with_factory(
        &dir.join("engine"),
        WIDTH,
        Arc::clone(hasher),
        CACHE_PAGES,
        counting_factory(&files),
    )?;
    let engine = Engine::with_shared(Arc::clone(&shared), server_config())?;
    let mut req = 0u64;
    let mut apply = |sw: &mut Sweep,
                     w: &Write,
                     timed: Option<(&mut Samples, &mut Samples)>|
     -> io::Result<bool> {
        req += 1;
        let ok = match (w, timed) {
            (Write::Insert(t), None) => matches!(
                engine.insert_with_id(req, t.clone()),
                InsertOutcome::Committed { .. }
            ),
            (Write::Insert(t), Some((ins, _))) => {
                let r = sw.time("server.engine.insert", 1e3, ins, || {
                    engine.insert_with_id(req, t.clone())
                });
                matches!(r, InsertOutcome::Committed { .. })
            }
            (Write::Delete(tids), None) => matches!(engine.delete_tids(req, tids), Response::Ok(_)),
            (Write::Delete(tids), Some((_, del))) => {
                let r = sw.time("server.engine.delete", 1e3, del, || {
                    engine.delete_tids(req, tids)
                });
                matches!(r, Response::Ok(_))
            }
        };
        Ok(ok)
    };
    for w in inp.base {
        let ok = apply(sw, w, None)?;
        sw.report
            .check(ok, || "commit-path base write refused".into());
    }
    let commits0 = shared.writer_profile().commits;
    let before = io_totals(&files);
    let (mut ins, mut del) = (Samples::default(), Samples::default());
    let mut rows = 0u64;
    for w in inp.replay {
        if let Write::Insert(t) = w {
            rows += t.len() as u64;
        }
        let ok = apply(sw, w, Some((&mut ins, &mut del)))?;
        sw.report
            .check(ok, || "commit-path replay write refused".into());
    }
    let after = io_totals(&files);
    let commits = (shared.writer_profile().commits - commits0).max(1);
    sw.put("server.engine.insert_ms", &ins, "ms");
    sw.put("server.engine.delete_ms", &del, "ms");
    sw.report.metric(
        "server.engine.batches_per_commit",
        ins.len() as f64 / commits as f64,
        "ratio",
        ins.len(),
    );
    let (mut syncs, mut bytes) = (0u64, 0u64);
    for f in FILES {
        let (s, b) = (after[f].0 - before[f].0, after[f].1 - before[f].1);
        syncs += s;
        bytes += b;
        sw.report.metric(
            &format!("storage.io.{f}.syncs_per_commit"),
            s as f64 / commits as f64,
            "ratio",
            commits as usize,
        );
        sw.report.metric(
            &format!("storage.io.{f}.bytes_per_row"),
            b as f64 / rows.max(1) as f64,
            "B",
            rows as usize,
        );
    }
    sw.report.metric(
        "storage.io.syncs_per_commit",
        syncs as f64 / commits as f64,
        "ratio",
        commits as usize,
    );
    sw.report.metric(
        "storage.io.bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
        "B",
        rows as usize,
    );
    engine.join();
    Ok(())
}

fn sharded(sw: &mut Sweep, inp: &Inputs, dir: &Path, qs: &[Query]) -> io::Result<()> {
    drop(ShardedDeployment::create(
        dir,
        deploy::SHARDS,
        WIDTH,
        Arc::new(Md5BloomHasher::new(4)),
        CACHE_PAGES,
    )?);
    let router = ShardedEngine::open(dir, server_config())?;
    for chunk in inp.rows.chunks(4096) {
        let ok = matches!(
            router.insert_with_id(0, chunk.to_vec()),
            InsertOutcome::Committed { .. }
        );
        sw.report.check(ok, || "sharded load refused".into());
    }
    let (mut one, mut many, mut mine) =
        (Samples::default(), Samples::default(), Samples::default());
    for _ in 0..PASSES {
        for q in qs {
            let req = Request::Count { items: q.clone() };
            sw.time("shard.router.count", 1e6, &mut one, || router.handle(&req));
        }
        for t in 0..inp.pool.templates.len() {
            let req = Request::CountMany {
                itemsets: template_sets(inp.pool, t),
            };
            sw.time("shard.router.count_many", 1e6, &mut many, || {
                router.handle(&req)
            });
        }
    }
    let (scheme, threshold) = mine_request(inp.tau);
    let req = Request::Mine {
        scheme,
        threshold,
        threads: 0,
    };
    for _ in 0..HEAVY_REPS {
        sw.time("shard.router.mine", 1e3, &mut mine, || router.handle(&req));
    }
    sw.put("shard.router.count_us", &one, "us");
    sw.put("shard.router.count_many_us", &many, "us");
    sw.put("shard.router.mine_ms", &mine, "ms");
    RequestHandler::join(&*router);
    Ok(())
}

fn remote(sw: &mut Sweep, inp: &Inputs, dir: &Path, qs: &[Query]) -> io::Result<()> {
    let served = Served::scatter(dir)?;
    let result = (|| -> io::Result<()> {
        let mut client = connect(served.addr())?;
        for (i, chunk) in wire_rows(inp.rows).chunks(4096).enumerate() {
            client.insert_with_id(i as u64 + 1, chunk).map_err(io_err)?;
        }
        let coord = served.coordinator().expect("scatter has a coordinator");
        let (mut one, mut many, mut mine) =
            (Samples::default(), Samples::default(), Samples::default());
        for _ in 0..PASSES {
            for q in qs {
                let req = Request::Count { items: q.clone() };
                sw.time("remote.coordinator.count", 1e6, &mut one, || {
                    coord.handle(&req)
                });
            }
            for t in 0..inp.pool.templates.len() {
                let req = Request::CountMany {
                    itemsets: template_sets(inp.pool, t),
                };
                sw.time("remote.coordinator.count_many", 1e6, &mut many, || {
                    coord.handle(&req)
                });
            }
        }
        let (scheme, threshold) = mine_request(inp.tau);
        let req = Request::Mine {
            scheme,
            threshold,
            threads: 0,
        };
        for _ in 0..HEAVY_REPS {
            sw.time("remote.coordinator.mine", 1e3, &mut mine, || {
                coord.handle(&req)
            });
        }
        sw.put("remote.coordinator.count_us", &one, "us");
        sw.put("remote.coordinator.count_many_us", &many, "us");
        sw.put("remote.coordinator.mine_ms", &mine, "ms");

        let mut shard = connect(&served.shard_addrs()[0])?;
        let (mut pin, mut at, mut pull) =
            (Samples::default(), Samples::default(), Samples::default());
        let mut epoch = 0;
        for _ in 0..200 {
            epoch = sw
                .time("remote.shard.pin", 1e6, &mut pin, || shard.snapshot_pin())
                .map_err(io_err)?
                .epoch;
        }
        for _ in 0..PASSES {
            for t in 0..inp.pool.templates.len() {
                let sets = template_sets(inp.pool, t);
                sw.time("remote.shard.count_many_at", 1e6, &mut at, || {
                    shard.count_many_at(epoch, &sets, None)
                })
                .map_err(io_err)?;
            }
        }
        for _ in 0..HEAVY_REPS {
            let pulled = sw.time(
                "remote.shard.rows",
                1e3,
                &mut pull,
                || -> io::Result<u64> {
                    let mut from = 0u64;
                    loop {
                        let r = shard.rows(epoch, from, 8192).map_err(io_err)?;
                        from += r.txns.len() as u64;
                        if from >= r.total || r.txns.is_empty() {
                            return Ok(from);
                        }
                    }
                },
            )?;
            sw.report
                .check(pulled > 0, || "empty shard row pull".into());
        }
        sw.put("remote.shard.pin_us", &pin, "us");
        sw.put("remote.shard.count_many_at_us", &at, "us");
        sw.put("remote.shard.rows_ms", &pull, "ms");
        Ok(())
    })();
    served.stop();
    result
}

/// The paper's baselines on the same rows and queries: a naive subset
/// scan, an inverted-index intersection, Apriori and FP-growth.
fn baselines(sw: &mut Sweep, inp: &Inputs, qs: &[Query]) -> io::Result<()> {
    let rows: Vec<Vec<u32>> = wire_rows(inp.rows)
        .into_iter()
        .map(|(_, mut v)| {
            v.sort_unstable();
            v
        })
        .collect();
    let mut inverted: HashMap<u32, Vec<u32>> = HashMap::new();
    for (r, items) in rows.iter().enumerate() {
        for &i in items {
            inverted.entry(i).or_default().push(r as u32);
        }
    }
    let subset = |q: &[u32], row: &[u32]| q.iter().all(|i| row.binary_search(i).is_ok());
    let intersect = |q: &[u32]| -> u64 {
        let mut lists: Vec<&Vec<u32>> = match q
            .iter()
            .map(|i| inverted.get(i))
            .collect::<Option<Vec<_>>>()
        {
            Some(l) => l,
            None => return 0,
        };
        lists.sort_by_key(|l| l.len());
        let mut acc: Vec<u32> = lists[0].clone();
        for l in &lists[1..] {
            acc.retain(|r| l.binary_search(r).is_ok());
        }
        acc.len() as u64
    };
    let (mut scan, mut inv) = (Samples::default(), Samples::default());
    for q in qs {
        let a = sw.time("baseline.scan_count", 1e6, &mut scan, || {
            rows.iter().filter(|r| subset(q, r)).count() as u64
        });
        let b = sw.time("baseline.inverted_count", 1e6, &mut inv, || intersect(q));
        sw.report.check(a == b, || {
            format!("baselines disagree on {q:?}: scan {a}, inverted {b}")
        });
    }
    sw.put("baseline.scan_count_us", &scan, "us");
    sw.put("baseline.inverted_count_us", &inv, "us");
    let db = TransactionDb::from_transactions(inp.rows.iter().cloned());
    let threshold = SupportThreshold::Fraction(inp.tau);
    let (mut ap, mut fp) = (Samples::default(), Samples::default());
    let a = sw.time("baseline.apriori_mine", 1e3, &mut ap, || {
        AprioriMiner::new().mine(&db, threshold)
    });
    let f = sw.time("baseline.fpgrowth_mine", 1e3, &mut fp, || {
        FpGrowthMiner::new().mine(&db, threshold)
    });
    sw.report.check(a.patterns.len() == f.patterns.len(), || {
        "Apriori and FP-growth disagree".into()
    });
    sw.put("baseline.apriori_mine_ms", &ap, "ms");
    sw.put("baseline.fpgrowth_mine_ms", &fp, "ms");
    Ok(())
}
