//! `quest-query` and `quest-scatter`: the paper's Quest T10.I10.D10K rows,
//! bulk-loaded once and then read by one closed-loop client (COUNT,
//! miner-shaped COUNT_MANY, and a DFP mine at τ = 0.3 % every fixed number
//! of frames).  The two differ only in what serves the rows: one engine,
//! or four shard engines behind a coordinator.

use crate::deploy::{connect, io_err, Served};
use crate::oracle::{self, check_mine, wire_rows, Query, Truth};
use crate::report::Report;
use crate::util::{dir_bytes, sub_seed, Rng, Samples};
use crate::workload::{self, Answer, Mix, Pool, ReadLog, Scale, FRAME_ITEMSETS};
use bbs_bitslice::BitVec;
use bbs_datagen::QuestConfig;
use bbs_tdb::{Itemset, PatternSet, Transaction};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Rows per bulk-load INSERT frame.
const LOAD_BATCH: usize = 500;
/// DELETE frames of absent TIDs sent after each bulk load.
const NOOP_DELETES: usize = 10;
/// COUNT_MANY templates in the pool.
const TEMPLATES: usize = 64;
/// Upper bound on the single-COUNT pool.
const MAX_SINGLES: usize = 4096;

pub struct QuestSpec {
    pub config: QuestConfig,
    /// τ as a fraction of the rows (the paper's 0.3 %).
    pub tau: f64,
    pub mine_every: usize,
}

pub fn spec(scale: Scale, seed: u64) -> QuestSpec {
    let seed = sub_seed(seed, 1);
    match scale {
        Scale::Paper => QuestSpec {
            // Profile::paper(): T10.I10.D10K, V = 10 000, L = 2000.
            config: QuestConfig::paper_default().with_seed(seed),
            tau: 0.003,
            mine_every: 500,
        },
        Scale::Micro => QuestSpec {
            config: QuestConfig {
                transactions: 400,
                items: 150,
                avg_txn_len: 6.0,
                avg_pattern_len: 4.0,
                pattern_pool: 30,
                ..QuestConfig::paper_default()
            }
            .with_seed(seed),
            tau: 0.03,
            mine_every: 20,
        },
    }
}

pub fn rows(spec: &QuestSpec) -> Vec<Transaction> {
    bbs_datagen::generate_db(spec.config)
        .transactions()
        .to_vec()
}

fn values(set: &Itemset) -> Query {
    set.items().iter().map(|i| i.0).collect()
}

/// The query pool: the frequent itemsets at τ and a seeded sample of their
/// negative border (infrequent itemsets whose every subset is frequent),
/// plus COUNT_MANY templates shaped like a miner's candidate batch: one
/// frequent prefix and 64 extensions, true extensions first.
pub fn pool(frequent: &PatternSet, seed: u64) -> Pool {
    let mut rng = Rng::new(sub_seed(seed, 2));
    let mut levels: Vec<Vec<Itemset>> = Vec::new();
    for (set, _) in frequent.iter() {
        let k = set.len();
        if levels.len() < k {
            levels.resize(k, Vec::new());
        }
        levels[k - 1].push(set.clone());
    }
    for level in &mut levels {
        level.sort();
    }
    let items: Vec<u32> = levels
        .first()
        .map_or(Vec::new(), |l| l.iter().map(|s| s.items()[0].0).collect());
    let is_frequent = |q: &Itemset| frequent.contains(q);

    let mut border: BTreeSet<Itemset> = BTreeSet::new();
    for level in levels.iter().skip(1) {
        for cand in bbs_apriori::generate_candidates(level) {
            if !is_frequent(&cand) {
                border.insert(cand);
            }
        }
    }
    // Border pairs: two frequent items that are not frequent together.
    let want = frequent.len().min(MAX_SINGLES / 2);
    let mut tries = 0;
    while items.len() >= 2 && border.len() < want && tries < 50 * want {
        tries += 1;
        let (a, b) = (*rng.pick(&items), *rng.pick(&items));
        let pair = Itemset::from_values(&[a, b]);
        if a != b && !is_frequent(&pair) {
            border.insert(pair);
        }
    }
    let mut singles: Vec<Query> = levels.iter().flatten().map(values).collect();
    let mut border: Vec<Query> = border.iter().map(values).collect();
    // Keep the pool balanced between frequent and border itemsets.
    shuffle(&mut singles, &mut rng);
    shuffle(&mut border, &mut rng);
    singles.truncate(MAX_SINGLES / 2);
    border.truncate(singles.len().max(1));
    singles.extend(border);

    let mut pool = Pool {
        singles: singles.len(),
        queries: singles,
        templates: Vec::new(),
    };
    let prefixes: Vec<&Itemset> = levels.iter().take(3).flatten().collect();
    for _ in 0..TEMPLATES {
        let prefix = *rng.pick(&prefixes);
        let mut ext: Vec<u32> = items
            .iter()
            .copied()
            .filter(|&x| !prefix.contains(bbs_tdb::ItemId(x)))
            .collect();
        shuffle(&mut ext, &mut rng);
        // True extensions first, as a miner's batch would hold them.
        ext.sort_by_key(|&x| !is_frequent(&prefix.with_item(bbs_tdb::ItemId(x))));
        ext.truncate(FRAME_ITEMSETS);
        pool.push_template(&values(prefix), &ext);
    }
    pool
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Everything a quest run checks against.
pub struct Expected {
    pub est: Vec<u64>,
    pub exact: Vec<u64>,
    pub frequent: PatternSet,
    pub tau_abs: u64,
}

pub struct Input {
    pub spec: QuestSpec,
    pub rows: Vec<Transaction>,
    pub pool: Pool,
    pub expected: Expected,
}

/// Generates the rows, the pool and the offline truth (not timed).
pub fn prepare(scale: Scale, seed: u64) -> Input {
    let spec = spec(scale, seed);
    let rows = rows(&spec);
    let frequent = oracle::fpgrowth(&rows, spec.tau);
    let pool = pool(&frequent, seed);
    let truth = Truth::new(&rows, &pool.queries);
    let all = BitVec::ones(rows.len());
    let est = (0..pool.queries.len())
        .map(|q| truth.estimate(q, &all))
        .collect();
    let exact = pool.queries.iter().map(|q| truth.exact(q, &all)).collect();
    let tau_abs = bbs_tdb::SupportThreshold::Fraction(spec.tau).resolve(rows.len());
    Input {
        spec,
        rows,
        pool,
        expected: Expected {
            est,
            exact,
            frequent,
            tau_abs,
        },
    }
}

/// Write-path samples of one bulk load.
#[derive(Default)]
pub struct LoadLog {
    pub insert_ms: Samples,
    pub delete_ms: Samples,
    pub txns_per_s: Samples,
}

/// One set-up: generate the rows, start the servers, bulk-load through the
/// client in INSERT frames with request IDs, send the no-op DELETEs, and
/// warm the caches with one pass over the pool.
pub fn setup(
    input: &Input,
    scatter: bool,
    dir: &Path,
    unix: Option<std::path::PathBuf>,
    load: &mut LoadLog,
    report: &mut Report,
) -> io::Result<Served> {
    let rows = wire_rows(&rows(&input.spec));
    let served = if scatter {
        Served::scatter(dir)?
    } else {
        Served::single(dir, unix)?
    };
    let mut client = connect(served.addr())?;
    let t_load = Instant::now();
    for (i, batch) in rows.chunks(LOAD_BATCH).enumerate() {
        let t0 = Instant::now();
        let r = client.insert_with_id(i as u64 + 1, batch);
        load.insert_ms.since(t0, 1e3);
        match r {
            Ok(r) => report.check(r.appended == batch.len() as u64, || {
                format!(
                    "bulk insert {i}: appended {} of {}",
                    r.appended,
                    batch.len()
                )
            }),
            Err(e) => return Err(io_err(format!("bulk insert {i}: {e}"))),
        }
    }
    load.txns_per_s
        .push(rows.len() as f64 / t_load.elapsed().as_secs_f64());
    // DELETEs naming TIDs that were never loaded, so the rows stay the
    // paper's rows; each carries a request ID and so commits its
    // exactly-once receipt like any delete.
    let absent = rows.len() as u64 + 1_000_000;
    for k in 0..NOOP_DELETES as u64 {
        let tids: Vec<u64> = (0..64).map(|j| absent + k * 64 + j).collect();
        let t0 = Instant::now();
        let r = client.delete_with_id(1_000_000 + k, &tids);
        load.delete_ms.since(t0, 1e3);
        match r {
            Ok(r) => report.check(r.deleted == 0, || {
                format!("no-op delete removed {} rows", r.deleted)
            }),
            Err(e) => return Err(io_err(format!("no-op delete: {e}"))),
        }
    }
    workload::warm(&mut client, &input.pool)?;
    Ok(served)
}

pub fn mix(spec: &QuestSpec) -> Mix {
    Mix {
        mine_every: spec.mine_every,
        tau: spec.tau,
    }
}

/// Checks every answer of a read stream against the offline truth.
pub fn check(input: &Input, log: &ReadLog, report: &mut Report) {
    let exp = &input.expected;
    report.attempted += log.attempted;
    for e in &log.errors {
        report.fail(e.clone());
    }
    let rows = input.rows.len() as u64;
    for a in &log.answers {
        match a {
            Answer::Count { q, support, .. } => {
                if *support != exp.est[*q] || *support < exp.exact[*q] {
                    report.fail(format!(
                        "count {:?}: got {support}, expected {} (exact {})",
                        input.pool.queries[*q], exp.est[*q], exp.exact[*q]
                    ));
                }
            }
            Answer::Many { t, supports, .. } => {
                let idx = &input.pool.templates[*t];
                let bad = supports.len() != idx.len()
                    || idx
                        .iter()
                        .zip(supports)
                        .any(|(&q, &s)| s != exp.est[q] || s < exp.exact[q]);
                if bad {
                    report.fail(format!(
                        "count_many template {t}: answers differ from the offline BBS"
                    ));
                }
            }
            Answer::Mine {
                patterns, rows: r, ..
            } => {
                let res = if *r != rows {
                    Err(format!("mine covered {r} rows, expected {rows}"))
                } else {
                    check_mine(patterns, &exp.frequent, exp.tau_abs)
                };
                if let Err(e) = res {
                    report.fail(e);
                }
            }
        }
    }
}

/// Bytes the deployment occupies on disk per user byte of its rows.
pub fn space_amp(dir: &Path, rows: &[Transaction]) -> f64 {
    let user: usize = rows.iter().map(Transaction::record_bytes).sum();
    dir_bytes(dir) as f64 / user as f64
}

/// Reports the write-path and set-up metrics of the bulk loads.
pub fn report_load(report: &mut Report, load: &LoadLog, setup: &Samples) {
    report.metric("setup_s", setup.median(), "s", setup.len());
    report.metric(
        "insert_p50_ms",
        load.insert_ms.median(),
        "ms",
        load.insert_ms.len(),
    );
    report.metric(
        "insert_p90_ms",
        load.insert_ms.quantile(0.9),
        "ms",
        load.insert_ms.len(),
    );
    report.metric(
        "delete_p50_ms",
        load.delete_ms.median(),
        "ms",
        load.delete_ms.len(),
    );
    report.metric(
        "ingest_txns_per_s",
        load.txns_per_s.median(),
        "1/s",
        load.txns_per_s.len(),
    );
}
