//! The shard router end-to-end: a `ShardedEngine` served over TCP must
//! be indistinguishable from an unsharded server holding the same
//! transactions — same counts, same mined patterns, same probe'd rows —
//! while routing inserts to N independent per-shard commit pipelines,
//! deduplicating retries per shard, and reporting shard topology and
//! scatter-gather latencies in its stats document.

use bbs_core::Scheme;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_server::{
    serve, Bind, Client, Engine, LocalShard, RequestHandler, ServerConfig, ShardedEngine,
};
use bbs_shard::{route, ShardedDeployment};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_tdb::SupportThreshold;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_sharded_srv_{}_{}", std::process::id(), name));
    p
}

struct CleanupDir(PathBuf);
impl Drop for CleanupDir {
    fn drop(&mut self) {
        ShardedDeployment::remove_files(&self.0).ok();
    }
}

struct CleanupBase(PathBuf);
impl Drop for CleanupBase {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(4))
}

fn cfg() -> ServerConfig {
    ServerConfig {
        cache_pages: 128,
        queue_capacity: 32,
        ..ServerConfig::default()
    }
}

/// Creates an N-shard deployment directory (default width + hasher, the
/// ones `ShardedEngine::open` uses).
fn create_shards(dir: &Path, shards: usize) {
    ShardedDeployment::create(dir, shards, 64, hasher(), 64).expect("create sharded");
}

fn batch(start: u64, n: u64) -> Vec<(u64, Vec<u32>)> {
    (start..start + n)
        .map(|i| {
            let mut items = vec![1, 2 + (i % 3) as u32];
            if i % 5 == 0 {
                items.push(9);
            }
            (i, items)
        })
        .collect()
}

#[test]
fn sharded_server_matches_unsharded_over_the_wire() {
    const SHARDS: usize = 4;
    const N: u64 = 120;
    let sd = base("parity_s");
    let ub = base("parity_u");
    let _g = (CleanupDir(sd.clone()), CleanupBase(ub.clone()));
    create_shards(&sd, SHARDS);

    let sharded = ShardedEngine::open(&sd, cfg()).expect("open sharded");
    let unsharded = Engine::open(&ub, cfg()).expect("open unsharded");
    let sh = serve(
        Arc::clone(&sharded),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve sharded");
    let uh = serve(
        Arc::clone(&unsharded),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve unsharded");
    let mut sc = Client::connect_tcp(sh.tcp_addr().unwrap().to_string()).expect("connect");
    let mut uc = Client::connect_tcp(uh.tcp_addr().unwrap().to_string()).expect("connect");

    let txns = batch(0, N);
    let sr = sc.insert(&txns).expect("sharded insert");
    let ur = uc.insert(&txns).expect("unsharded insert");
    assert_eq!(sr.appended, N);
    assert_eq!(ur.appended, N);
    assert!(!sr.deduped);

    // The batch landed partitioned by TID residue, one pipeline each.
    for (i, e) in sharded.shards().iter().map(LocalShard::engine).enumerate() {
        let want = (0..N).filter(|t| route(*t, SHARDS) == i).count() as u64;
        assert_eq!(e.snapshot().rows(), want, "shard {i} rows");
    }

    // Counting parity, single and batched.
    for items in [vec![1u32], vec![2], vec![1, 9], vec![4, 9], vec![77]] {
        let s = sc.count(&items).expect("count").support;
        let u = uc.count(&items).expect("count").support;
        assert_eq!(s, u, "count {items:?}");
    }
    let queries: Vec<&[u32]> = vec![&[1], &[2], &[9], &[1, 3], &[2, 9], &[]];
    let s = sc.count_many(&queries).expect("count_many");
    let u = uc.count_many(&queries).expect("count_many");
    assert_eq!(s.supports, u.supports);
    assert_eq!(s.rows, N);

    // Mining parity: bit-for-bit patterns, supports and approx markers.
    for scheme in [Scheme::Sfs, Scheme::Dfp] {
        for threads in [1u16, 3] {
            let sm = sc
                .mine(scheme, SupportThreshold::Count(20), threads)
                .expect("sharded mine");
            let um = uc
                .mine(scheme, SupportThreshold::Count(20), threads)
                .expect("unsharded mine");
            assert_eq!(sm.patterns, um.patterns, "{scheme:?} x{threads}");
            assert_eq!(sm.rows, N);
        }
    }

    // Probing the concatenated row space: shard 0's rows first, then
    // shard 1's, … — together exactly the inserted TID set.
    let mut seen = Vec::new();
    for row in 0..N {
        let (tid, _) = sc.probe(row).expect("probe").expect("present");
        seen.push(tid);
    }
    let mut want: Vec<u64> = Vec::new();
    for shard in 0..SHARDS {
        want.extend((0..N).filter(|t| route(*t, SHARDS) == shard));
    }
    assert_eq!(seen, want);
    assert_eq!(sc.probe(N).expect("probe"), None);

    // Stats document: shard topology + scatter-gather latencies.
    let json = sc.stats().expect("stats");
    assert!(json.contains(&format!("\"shards\":{SHARDS}")), "{json}");
    assert!(json.contains(&format!("\"rows\":{N}")));
    assert!(json.contains("\"shard_rows\":[30,30,30,30]"));
    assert!(json.contains("\"shard_lag\":[0,0,0,0]"));
    // Per-shard fault counters, all zero on this clean run.
    assert!(json.contains("\"scatter_errors\":[0,0,0,0]"), "{json}");
    assert!(json.contains("\"timeouts\":[0,0,0,0]"));
    assert!(json.contains("\"failovers\":[0,0,0,0]"));
    assert!(json.contains("\"scatter_us\":{\"insert\":{\"count\":1,"));
    assert!(json.contains("\"shard_queue_depth\":["));
    // Endpoint counters live on the router, not the shards.
    assert!(json.contains("\"mine\":{\"requests\":4,"));
    let scatter = sharded.scatter_metrics();
    assert_eq!(scatter.insert.count(), 1);
    assert!(scatter.count.count() >= 5);
    assert!(scatter.count_many.count() >= 1);
    assert_eq!(scatter.mine.count(), 4);
    assert!(scatter.probe.count() >= N);

    sh.join();
    uh.join();
}

#[test]
fn retries_dedup_per_shard_and_drain_is_graceful() {
    const SHARDS: usize = 3;
    let sd = base("dedup_s");
    let _g = CleanupDir(sd.clone());
    create_shards(&sd, SHARDS);
    let sharded = ShardedEngine::open(&sd, cfg()).expect("open");
    let handle = serve(
        Arc::clone(&sharded),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve");
    let mut client = Client::connect_tcp(handle.tcp_addr().unwrap().to_string()).expect("connect");

    let txns = batch(0, 30);
    let first = client.insert_with_id(7, &txns).expect("insert");
    assert_eq!((first.appended, first.deduped), (30, false));

    // A client retry after a lost reply: every shard answers from its
    // own exactly-once window; nothing appends twice.
    let retry = client.insert_with_id(7, &txns).expect("retry");
    assert_eq!((retry.appended, retry.deduped), (30, true));
    assert_eq!(client.count(&[1]).expect("count").support, 30);
    for e in sharded.shards().iter().map(LocalShard::engine) {
        assert_eq!(
            e.metrics()
                .dedup_hits
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    // Shutdown over the wire drains every shard's pipeline.
    client.shutdown_server().expect("shutdown");
    handle.wait();
    assert!(sharded.is_draining());
    for e in sharded.shards().iter().map(LocalShard::engine) {
        assert!(e.is_draining());
    }

    // A fresh open still serves the committed 30 rows.
    let reopened = ShardedEngine::open(&sd, cfg()).expect("reopen");
    let (supports, _, rows) = reopened.count_many(&[vec![1]]).expect("count");
    assert_eq!((supports[0], rows), (30, 30));
    reopened.join();
}

#[test]
fn router_rejects_follower_mode_and_replication_endpoints() {
    let sd = base("reject_s");
    let _g = CleanupDir(sd.clone());
    create_shards(&sd, 2);
    match ShardedEngine::open(
        &sd,
        ServerConfig {
            follow: Some("127.0.0.1:1".into()),
            ..cfg()
        },
    ) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("follower mode must be rejected"),
    }

    let sharded = ShardedEngine::open(&sd, cfg()).expect("open");
    let handle = serve(
        Arc::clone(&sharded),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve");
    let mut client = Client::connect_tcp(handle.tcp_addr().unwrap().to_string()).expect("connect");
    let err = client.replicate(0, 0, 16).expect_err("replicate must be typed error");
    assert!(matches!(err, bbs_server::ClientError::Server(_)));
    let err = client.promote().expect_err("promote must be typed error");
    assert!(matches!(err, bbs_server::ClientError::Server(_)));
    // The router itself keeps serving after the rejections.
    assert_eq!(client.count(&[1]).expect("count").support, 0);
    handle.join();
}

#[test]
fn commit_pipelines_run_per_shard() {
    // With a commit window, each shard coalesces its own producers: the
    // per-shard batch-size histograms prove every pipeline committed
    // independently (and only its own residue class).
    const SHARDS: usize = 4;
    let sd = base("pipelines");
    let _g = CleanupDir(sd.clone());
    create_shards(&sd, SHARDS);
    let sharded = ShardedEngine::open(
        &sd,
        ServerConfig {
            commit_window: Duration::from_millis(5),
            ..cfg()
        },
    )
    .expect("open");

    let writers = 8u64;
    let per = 40u64;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let sharded = &sharded;
            scope.spawn(move || {
                let txns: Vec<bbs_tdb::Transaction> = (0..per)
                    .map(|i| {
                        bbs_tdb::Transaction::new(
                            w * per + i,
                            bbs_tdb::Itemset::from_values(&[3, (w % 4) as u32 + 10]),
                        )
                    })
                    .collect();
                let outcome = sharded.insert_with_id(1 + w, txns);
                assert!(
                    matches!(outcome, bbs_server::InsertOutcome::Committed { .. }),
                    "writer {w}: {outcome:?}"
                );
            });
        }
    });
    let total = writers * per;
    let (supports, _, rows) = sharded.count_many(&[vec![3]]).expect("count");
    assert_eq!((supports[0], rows), (total, total));
    for (i, e) in sharded.shards().iter().map(LocalShard::engine).enumerate() {
        let m = e.metrics();
        assert!(m.batch_size.count() >= 1, "shard {i} never committed");
        assert_eq!(m.batch_size.sum(), total / SHARDS as u64, "shard {i} rows");
    }
    sharded.join();
}

#[test]
fn scatter_times_deletes_apart_from_inserts() {
    let sd = base("scatter_delete");
    let _g = CleanupDir(sd.clone());
    create_shards(&sd, 3);
    let sharded = ShardedEngine::open(&sd, cfg()).expect("open");
    let handle = serve(
        Arc::clone(&sharded),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve");
    let mut client = Client::connect_tcp(handle.tcp_addr().unwrap().to_string()).expect("connect");
    client.insert_with_id(1, &batch(0, 30)).expect("insert");
    assert_eq!(client.delete_with_id(2, &[0, 1, 2]).expect("delete").deleted, 3);

    let json = client.stats().expect("stats");
    assert!(json.contains("\"scatter_us\":{\"insert\":{\"count\":1,"), "{json}");
    assert!(json.contains("\"delete\":{\"count\":1,"), "{json}");
    handle.join();
}
