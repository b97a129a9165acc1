//! `bench_shard` — machine-readable performance snapshot of sharded
//! deployments, written to `BENCH_8.json`.
//!
//! Runs the same workload against a 1-shard and a 4-shard deployment,
//! each served in process over a TCP loopback socket:
//!
//! 1. **Ingest throughput**: W writer clients stream fixed-size insert
//!    batches for a wall-clock window.  Unsharded, every batch funnels
//!    through one group-commit pipeline; sharded, the router deals each
//!    batch to N independent pipelines that compute signatures and fsync
//!    concurrently — the txns/s ratio is the headline number.
//! 2. **count_many latency**: a reader client issues fixed-size
//!    `count_many` batches against the quiesced server; sharded, each
//!    batch scatter-gathers across every shard's shared-scan executor.
//!
//! Usage: `bench_shard [OUT.json]` (default `BENCH_8.json`).

use bbs_server::{Bind, Client, ClientError, ServerConfig, ShardedEngine};
use bbs_shard::ShardedDeployment;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARD_POINTS: [usize; 2] = [1, 4];
const WRITERS: usize = 8;
const BATCH: u64 = 64;
const INGEST_MS: u64 = 1500;
const COUNT_MANY_MS: u64 = 600;
const COUNT_MANY_ITEMSETS: usize = 16;
const WIDTH: usize = 1024;

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

struct LatencySummary {
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn summarize(mut samples_us: Vec<u64>) -> LatencySummary {
    samples_us.sort_unstable();
    LatencySummary {
        p50_us: quantile(&samples_us, 0.50),
        p99_us: quantile(&samples_us, 0.99),
        max_us: samples_us.last().copied().unwrap_or(0),
    }
}

fn items_of(i: u64) -> Vec<u32> {
    vec![1, 2 + (i % 64) as u32, 100 + (i % 7) as u32]
}

struct IngestResult {
    txns: u64,
    inserts: u64,
    overloaded: u64,
    secs: f64,
    latency: LatencySummary,
}

fn run_ingest(addr: &str) -> std::io::Result<IngestResult> {
    let stop = Arc::new(AtomicBool::new(false));
    let next_row = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let workers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let addr = addr.to_string();
            let stop = Arc::clone(&stop);
            let next_row = Arc::clone(&next_row);
            std::thread::spawn(move || -> std::io::Result<(u64, u64, u64, Vec<u64>)> {
                let mut client = Client::connect_tcp(&addr)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                let mut samples = Vec::new();
                let (mut txns, mut inserts, mut overloaded) = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::Acquire) {
                    let first = next_row.fetch_add(BATCH, Ordering::AcqRel);
                    let batch: Vec<(u64, Vec<u32>)> =
                        (first..first + BATCH).map(|i| (i, items_of(i))).collect();
                    loop {
                        let t0 = Instant::now();
                        match client.insert(&batch) {
                            Ok(_) => {
                                samples.push(t0.elapsed().as_micros() as u64);
                                txns += BATCH;
                                inserts += 1;
                                break;
                            }
                            Err(ClientError::Overloaded) => {
                                overloaded += 1;
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => return Err(std::io::Error::other(e.to_string())),
                        }
                    }
                }
                Ok((txns, inserts, overloaded, samples))
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(INGEST_MS));
    stop.store(true, Ordering::Release);
    let mut all = Vec::new();
    let (mut txns, mut inserts, mut overloaded) = (0u64, 0u64, 0u64);
    for w in workers {
        let (t, i, o, samples) = w.join().expect("writer thread")?;
        txns += t;
        inserts += i;
        overloaded += o;
        all.extend(samples);
    }
    Ok(IngestResult {
        txns,
        inserts,
        overloaded,
        secs: start.elapsed().as_secs_f64(),
        latency: summarize(all),
    })
}

/// Quiesced `count_many` round-trips: fixed-size batches of small
/// itemsets, measured end to end over the wire.
fn run_count_many(addr: &str) -> std::io::Result<(LatencySummary, f64)> {
    let mut client =
        Client::connect_tcp(addr).map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut samples = Vec::new();
    let start = Instant::now();
    let window = Duration::from_millis(COUNT_MANY_MS);
    let mut round = 0u64;
    while start.elapsed() < window {
        let owned: Vec<Vec<u32>> = (0..COUNT_MANY_ITEMSETS as u64)
            .map(|k| vec![1u32, 2 + ((round + k) % 64) as u32])
            .collect();
        let itemsets: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
        let t0 = Instant::now();
        client
            .count_many(&itemsets)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        samples.push(t0.elapsed().as_micros() as u64);
        round += 1;
    }
    let per_s = samples.len() as f64 / start.elapsed().as_secs_f64();
    Ok((summarize(samples), per_s))
}

struct ShardRun {
    shards: usize,
    ingest: IngestResult,
    count_many: LatencySummary,
    count_many_per_s: f64,
    shard_rows: Vec<u64>,
}

fn run_point(shards: usize) -> std::io::Result<ShardRun> {
    let mut dir: PathBuf = std::env::temp_dir();
    dir.push(format!("bbs_bench8_{}_{}", std::process::id(), shards));
    ShardedDeployment::remove_files(&dir).ok();
    ShardedDeployment::create(
        &dir,
        shards,
        WIDTH,
        Arc::new(bbs_hash::Md5BloomHasher::new(4)),
        4096,
    )?;
    let engine = ShardedEngine::open(&dir, ServerConfig::default())?;
    let handle = bbs_server::serve(
        engine,
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )?;
    let addr = handle.tcp_addr().expect("tcp bound").to_string();
    eprintln!("# {shards} shard(s) on {addr}: {WRITERS} writers x {BATCH}-txn batches, {INGEST_MS} ms window");

    let ingest = run_ingest(&addr)?;
    eprintln!(
        "#   ingest: {:.0} txns/s ({} inserts, {} overloaded), insert p50 {} us p99 {} us",
        ingest.txns as f64 / ingest.secs,
        ingest.inserts,
        ingest.overloaded,
        ingest.latency.p50_us,
        ingest.latency.p99_us
    );

    let (count_many, count_many_per_s) = run_count_many(&addr)?;
    eprintln!(
        "#   count_many x{COUNT_MANY_ITEMSETS} (quiesced): {:.0} batches/s, p50 {} us p99 {} us",
        count_many_per_s, count_many.p50_us, count_many.p99_us
    );

    let shard_rows: Vec<u64> = handle
        .engine()
        .shards()
        .iter()
        .map(|s| s.engine().snapshot().rows())
        .collect();
    let mut client =
        Client::connect_tcp(&addr).map_err(|e| std::io::Error::other(e.to_string()))?;
    if std::env::var_os("BENCH_SHARD_DEBUG").is_some() {
        let stats = client
            .stats()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        eprintln!("#   stats: {stats}");
        for (i, s) in handle.engine().shards().iter().enumerate() {
            let m = s.engine().metrics();
            eprintln!(
                "#   shard {i}: commits={} batch_sum={} commit_us={}",
                m.commit_us.count(),
                m.batch_size.sum(),
                m.commit_us.to_json(),
            );
        }
    }
    client
        .shutdown_server()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    handle.join();
    ShardedDeployment::remove_files(&dir).ok();
    Ok(ShardRun {
        shards,
        ingest,
        count_many,
        count_many_per_s,
        shard_rows,
    })
}

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_8.json".to_string());

    let mut runs = Vec::new();
    for shards in SHARD_POINTS {
        runs.push(run_point(shards)?);
    }
    let base_rate = runs[0].ingest.txns as f64 / runs[0].ingest.secs;
    let top = runs.last().expect("at least one point");
    let top_rate = top.ingest.txns as f64 / top.ingest.secs;
    let speedup = top_rate / base_rate;
    eprintln!(
        "# ingest speedup at {} shards: {speedup:.2}x ({top_rate:.0} vs {base_rate:.0} txns/s)",
        top.shards
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": 8,\n");
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    json.push_str("  \"config\": {\n");
    json.push_str(&format!("    \"host_cpus\": {cpus},\n"));
    json.push_str(&format!("    \"writers\": {WRITERS},\n"));
    json.push_str(&format!("    \"batch\": {BATCH},\n"));
    json.push_str(&format!("    \"width\": {WIDTH},\n"));
    json.push_str(&format!("    \"ingest_window_ms\": {INGEST_MS},\n"));
    json.push_str(&format!(
        "    \"count_many_itemsets\": {COUNT_MANY_ITEMSETS}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"points\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let rows: Vec<String> = run.shard_rows.iter().map(u64::to_string).collect();
        json.push_str("    {\n");
        json.push_str(&format!("      \"shards\": {},\n", run.shards));
        json.push_str("      \"ingest\": {\n");
        json.push_str(&format!("        \"transactions\": {},\n", run.ingest.txns));
        json.push_str(&format!(
            "        \"txns_per_s\": {:.1},\n",
            run.ingest.txns as f64 / run.ingest.secs
        ));
        json.push_str(&format!("        \"inserts\": {},\n", run.ingest.inserts));
        json.push_str(&format!(
            "        \"overloaded_retries\": {},\n",
            run.ingest.overloaded
        ));
        json.push_str(&format!(
            "        \"insert_us\": {{ \"p50\": {}, \"p99\": {}, \"max\": {} }}\n",
            run.ingest.latency.p50_us, run.ingest.latency.p99_us, run.ingest.latency.max_us
        ));
        json.push_str("      },\n");
        json.push_str("      \"count_many\": {\n");
        json.push_str(&format!(
            "        \"batches_per_s\": {:.1},\n",
            run.count_many_per_s
        ));
        json.push_str(&format!(
            "        \"batch_us\": {{ \"p50\": {}, \"p99\": {}, \"max\": {} }}\n",
            run.count_many.p50_us, run.count_many.p99_us, run.count_many.max_us
        ));
        json.push_str("      },\n");
        json.push_str(&format!("      \"shard_rows\": [{}]\n", rows.join(",")));
        json.push_str(if i + 1 == runs.len() { "    }\n" } else { "    },\n" });
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"ingest_speedup_at_{}_shards\": {speedup:.2}\n",
        top.shards
    ));
    json.push_str("}\n");
    std::fs::write(&out, &json)?;
    println!("wrote {out}");
    Ok(())
}
