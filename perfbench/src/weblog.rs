//! `weblog-churn`: the §4.8 web log with daily churn.  Enough days are
//! bulk-loaded that the slice file outgrows the page cache; then one
//! writer replays the remaining days (DELETE of each day's expired TIDs,
//! then INSERT frames with request IDs) while one reader sends COUNT,
//! COUNT_MANY and an occasional mine over hot and cold files.  The
//! replay holds more days than a closed-loop writer can commit within a
//! run; a writer that runs out anyway fails the run.

use crate::deploy::{connect, io_err, Served};
use crate::oracle::{self, check_mine, offline_bbs, wire_rows, Query, Truth};
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{dir_bytes, sub_seed, Rng, Samples};
use crate::workload::{self, Answer, Mix, Pool, ReadLog, Scale, FRAME_ITEMSETS};
use bbs_bitslice::BitVec;
use bbs_datagen::{DayBatch, WeblogConfig, WeblogGenerator};
use bbs_tdb::{IoStats, Transaction};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct WeblogSpec {
    pub config: WeblogConfig,
    /// Days bulk-loaded in set-up; the writer replays the rest.
    pub bulk_days: usize,
    /// Days whose hot files make up the pool's hot set.
    pub pool_days: usize,
    /// Rows per bulk-load INSERT frame.
    pub load_batch: usize,
    /// Rows per INSERT frame of the writer.
    pub insert_batch: usize,
    /// Expired TIDs per DELETE frame.
    pub delete_batch: usize,
    pub tau: f64,
    pub mine_every: usize,
}

pub fn spec(scale: Scale, seed: u64) -> WeblogSpec {
    let seed = sub_seed(seed, 3);
    match scale {
        // 17 days × 4096 sessions = 69 632 rows > 65 536: three slice
        // chunks, 3 × 1600 = 4800 slice pages against a 4096-page cache.
        // Each INSERT waits out the 50 ms commit window, so one closed-loop
        // writer commits at most 20 × 256 = 5120 rows/s: under 38 days in
        // 30 s, against 64 days to replay.
        Scale::Paper => WeblogSpec {
            config: WeblogConfig {
                churn_rate: 0.1,
                seed,
                ..WeblogConfig::paper_scaled(17 + 64, 4096)
            },
            bulk_days: 17,
            pool_days: 17 + 24,
            load_batch: 4096,
            insert_batch: 256,
            delete_batch: 512,
            tau: 0.003,
            mine_every: 400,
        },
        Scale::Micro => WeblogSpec {
            config: WeblogConfig {
                files: 300,
                churn_rate: 0.1,
                seed,
                ..WeblogConfig::paper_scaled(3 + 40, 150)
            },
            bulk_days: 3,
            pool_days: 3 + 40,
            load_batch: 150,
            insert_batch: 50,
            delete_batch: 50,
            tau: 0.03,
            mine_every: 20,
        },
    }
}

/// One generated day: its rows (a range of [`Input::rows`]) and the TIDs
/// that expire on it.
pub struct Day {
    pub day: usize,
    pub rows: Range<usize>,
    pub expired_tids: Vec<u64>,
}

/// The generator's live TIDs after `day`, restricted to TIDs below `next_tid`.
fn generator_live(spec: &WeblogSpec, day: usize, next_tid: u64) -> BTreeSet<u64> {
    let mut g = WeblogGenerator::new(spec.config);
    for _ in 0..=day {
        g.next_day();
    }
    g.live_tids()
        .iter()
        .copied()
        .filter(|&t| t < next_tid)
        .collect()
}

/// Hot and cold files: single files, pairs within one day's hot set, and
/// hot–cold pairs; COUNT_MANY templates are one hot prefix with 48 hot and
/// 16 cold extensions.
pub fn pool(spec: &WeblogSpec, days: &[DayBatch], seed: u64) -> Pool {
    let mut rng = Rng::new(sub_seed(seed, 4));
    let hot: BTreeSet<u32> = days
        .iter()
        .flat_map(|d| d.hot_files.iter().map(|f| f.0))
        .collect();
    let hot: Vec<u32> = hot.into_iter().collect();
    let cold: Vec<u32> = (0..spec.config.files)
        .filter(|f| hot.binary_search(f).is_err())
        .collect();
    let mut singles: BTreeSet<Query> = BTreeSet::new();
    let add = |set: &mut BTreeSet<Query>, mut q: Query, n: usize| {
        q.sort_unstable();
        q.dedup();
        if set.len() < n {
            set.insert(q);
        }
    };
    for _ in 0..128 {
        add(&mut singles, vec![*rng.pick(&hot)], 128);
    }
    for _ in 0..64 {
        add(&mut singles, vec![*rng.pick(&cold)], 192);
    }
    for _ in 0..64 {
        let day = rng.pick(days);
        let (a, b) = (rng.pick(&day.hot_files).0, rng.pick(&day.hot_files).0);
        add(&mut singles, vec![a, b], 256);
    }
    for _ in 0..32 {
        add(&mut singles, vec![*rng.pick(&hot), *rng.pick(&cold)], 288);
    }
    let singles: Vec<Query> = singles.into_iter().collect();
    let mut pool = Pool {
        singles: singles.len(),
        queries: singles,
        templates: Vec::new(),
    };
    let hot_ext = FRAME_ITEMSETS * 3 / 4;
    for _ in 0..16 {
        let prefix = *rng.pick(&hot);
        let mut ext: BTreeSet<u32> = BTreeSet::new();
        while ext.len() < hot_ext.min(hot.len() - 1) {
            let x = *rng.pick(&hot);
            if x != prefix {
                ext.insert(x);
            }
        }
        while ext.len() < FRAME_ITEMSETS.min(hot.len() - 1 + cold.len()) {
            ext.insert(*rng.pick(&cold));
        }
        let ext: Vec<u32> = ext.into_iter().collect();
        pool.push_template(&[prefix], &ext);
    }
    pool
}

pub struct Input {
    pub spec: WeblogSpec,
    /// Every generated row; row `r` holds TID `r`.
    pub rows: Vec<Transaction>,
    pub days: Vec<Day>,
    pub pool: Pool,
}

/// Generates every day once; set-up and stream replay from these.  The
/// offline truth is built by [`check`], over the rows the writer reached.
pub fn prepare(scale: Scale, seed: u64) -> Input {
    let spec = spec(scale, seed);
    let mut batches = WeblogGenerator::new(spec.config).all_days();
    let pool = pool(&spec, &batches[..spec.pool_days], seed);
    let mut rows: Vec<Transaction> = Vec::new();
    let days = batches
        .iter_mut()
        .map(|d| {
            let start = rows.len();
            rows.append(&mut d.transactions);
            Day {
                day: d.day,
                rows: start..rows.len(),
                expired_tids: std::mem::take(&mut d.expired_tids),
            }
        })
        .collect();
    Input {
        spec,
        rows,
        days,
        pool,
    }
}

/// One acknowledged write and the epoch that first shows it.
pub enum Op {
    Insert { epoch: u64, first_row: u64, n: u64 },
    Delete { epoch: u64, tids: Vec<u64> },
}

impl Op {
    fn epoch(&self) -> u64 {
        match self {
            Op::Insert { epoch, .. } | Op::Delete { epoch, .. } => *epoch,
        }
    }
}

/// What the writer did.
#[derive(Default)]
pub struct WriteLog {
    pub insert_ms: Samples,
    pub delete_ms: Samples,
    pub rows: u64,
    pub secs: f64,
    pub attempted: u64,
    pub errors: Vec<String>,
    pub ops: Vec<Op>,
    /// Last day whose replay began, and the next TID not yet inserted.
    pub day: usize,
    pub next_tid: u64,
    /// Days whose replay began, and whether every day was replayed
    /// before the deadline.
    pub days_replayed: usize,
    pub ran_out: bool,
    next_req: u64,
}

impl WriteLog {
    fn delete(&mut self, client: &mut bbs_server::Client, tids: &[u64]) {
        self.attempted += 1;
        self.next_req += 1;
        let t0 = Instant::now();
        let r = client.delete_with_id(self.next_req, tids);
        self.delete_ms.since(t0, 1e3);
        match r {
            Ok(r) if r.deleted == tids.len() as u64 => self.ops.push(Op::Delete {
                epoch: r.epoch,
                tids: tids.to_vec(),
            }),
            Ok(r) => self
                .errors
                .push(format!("delete: {} of {} rows", r.deleted, tids.len())),
            Err(e) => self.errors.push(format!("delete: {e}")),
        }
    }

    fn insert(&mut self, client: &mut bbs_server::Client, batch: &[(u64, Vec<u32>)]) {
        self.attempted += 1;
        self.next_req += 1;
        let t0 = Instant::now();
        let r = client.insert_with_id(self.next_req, batch);
        self.insert_ms.since(t0, 1e3);
        match r {
            Ok(r) if r.appended == batch.len() as u64 && r.first_row == batch[0].0 => {
                self.rows += r.appended;
                self.next_tid = batch[0].0 + r.appended;
                self.ops.push(Op::Insert {
                    epoch: r.epoch,
                    first_row: r.first_row,
                    n: r.appended,
                });
            }
            Ok(r) => self.errors.push(format!(
                "insert at tid {}: row {} appended {}",
                batch[0].0, r.first_row, r.appended
            )),
            Err(e) => self.errors.push(format!("insert: {e}")),
        }
    }

    /// Replays `days` until `deadline`: each day's expired TIDs in DELETE
    /// frames of `deletes` TIDs (a day's deletes always complete), then its
    /// rows in INSERT frames of `inserts` rows.
    fn replay(
        &mut self,
        client: &mut bbs_server::Client,
        rows: &[Transaction],
        days: &[Day],
        (inserts, deletes): (usize, usize),
        deadline: Option<Instant>,
    ) {
        let due = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
        let t0 = Instant::now();
        self.ran_out = true;
        'days: for day in days {
            if due(deadline) {
                self.ran_out = false;
                break;
            }
            self.day = day.day;
            self.days_replayed += 1;
            for tids in day.expired_tids.chunks(deletes) {
                self.delete(client, tids);
            }
            for chunk in wire_rows(&rows[day.rows.clone()]).chunks(inserts) {
                if due(deadline) {
                    self.ran_out = false;
                    break 'days;
                }
                self.insert(client, chunk);
            }
        }
        self.secs += t0.elapsed().as_secs_f64();
    }
}

/// One set-up: start the engine, bulk-load the first `bulk_days` through
/// the client, and warm with one pass over the pool.
pub fn setup(
    input: &Input,
    dir: &Path,
    unix: Option<std::path::PathBuf>,
) -> io::Result<(Served, WriteLog)> {
    let served = Served::single(dir, unix)?;
    let mut client = connect(served.addr())?;
    let mut log = WriteLog::default();
    log.replay(
        &mut client,
        &input.rows,
        &input.days[..input.spec.bulk_days],
        (input.spec.load_batch, input.spec.delete_batch),
        None,
    );
    if let Some(e) = log.errors.first() {
        return Err(io_err(format!("bulk load: {e}")));
    }
    workload::warm(&mut client, &input.pool)?;
    Ok((served, log))
}

pub fn mix(spec: &WeblogSpec) -> Mix {
    Mix {
        mine_every: spec.mine_every,
        tau: spec.tau,
    }
}

/// Runs the writer and the reader side by side for `secs` seconds.
pub fn stream(
    input: &Input,
    served: &Served,
    mut log: WriteLog,
    seed: u64,
    secs: f64,
    tracer: Option<&mut Tracer>,
) -> io::Result<(WriteLog, ReadLog)> {
    let mut writer = connect(served.addr())?;
    let mut reader = connect(served.addr())?;
    // The set-up's writes are part of the history the answers are
    // checked against, but not of the timed write metrics.
    let setup_ops = std::mem::take(&mut log.ops);
    let mut timed = WriteLog {
        next_req: log.next_req,
        day: log.day,
        next_tid: log.next_tid,
        ..WriteLog::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let read = std::thread::scope(|s| {
        let w = s.spawn(|| {
            timed.replay(
                &mut writer,
                &input.rows,
                &input.days[input.spec.bulk_days..],
                (input.spec.insert_batch, input.spec.delete_batch),
                Some(deadline),
            );
        });
        let read = workload::read_stream(
            &mut reader,
            &input.pool,
            mix(&input.spec),
            sub_seed(seed, 5),
            deadline,
            tracer,
        );
        w.join().expect("writer thread panicked");
        read
    });
    let mut ops = setup_ops;
    ops.append(&mut timed.ops);
    timed.ops = ops;
    Ok((timed, read))
}

/// Checks every answer against the state of its epoch, then the end state
/// against an offline BBS of the surviving rows and the generator's live
/// set.
pub fn check(
    input: &Input,
    served: &Served,
    write: &WriteLog,
    read: &ReadLog,
    report: &mut Report,
) -> io::Result<()> {
    report.attempted += write.attempted + read.attempted;
    for e in write.errors.iter().chain(&read.errors) {
        report.fail(e.clone());
    }
    // Reads must overlap writes for the whole timed window.
    report.check(!write.ran_out, || {
        format!(
            "the writer replayed all {} stream days {:.1} s into the stream; \
             the replay needs more days",
            write.days_replayed, write.secs
        )
    });
    let mut answers: Vec<&Answer> = read.answers.iter().collect();
    let epoch_of = |a: &Answer| match a {
        Answer::Count { epoch, .. } | Answer::Many { epoch, .. } | Answer::Mine { epoch, .. } => {
            *epoch
        }
    };
    answers.sort_by_key(|a| epoch_of(a));
    // Acknowledged writes name only rows below the next TID to insert.
    let reached = write.next_tid as usize;
    let truth = Truth::new(&input.rows[..reached], &input.pool.queries);
    let mut ops = write.ops.iter().peekable();
    let mut live = BitVec::zeros(reached);
    let mut mines: HashMap<u64, (bbs_tdb::PatternSet, u64)> = HashMap::new();
    let apply = |op: &Op, live: &mut BitVec| match op {
        Op::Insert { first_row, n, .. } => {
            (*first_row..first_row + n).for_each(|r| live.set(r as usize))
        }
        Op::Delete { tids, .. } => tids.iter().for_each(|&t| live.clear_bit(t as usize)),
    };
    let survivors = |live: &BitVec| -> Vec<Transaction> {
        live.iter_ones().map(|r| input.rows[r].clone()).collect()
    };
    for a in answers {
        while let Some(op) = ops.next_if(|op| op.epoch() <= epoch_of(a)) {
            apply(op, &mut live);
        }
        let ok = |q: usize, s: u64| {
            s == truth.estimate(q, &live) && s >= truth.exact(&input.pool.queries[q], &live)
        };
        match a {
            Answer::Count { q, support, epoch } => {
                if !ok(*q, *support) {
                    report.fail(format!(
                        "count {:?} at epoch {epoch}: got {support}",
                        input.pool.queries[*q]
                    ));
                }
            }
            Answer::Many { t, supports, epoch } => {
                let idx = &input.pool.templates[*t];
                if supports.len() != idx.len() || idx.iter().zip(supports).any(|(&q, &s)| !ok(q, s))
                {
                    report.fail(format!(
                        "count_many template {t} at epoch {epoch}: answers differ"
                    ));
                }
            }
            Answer::Mine {
                epoch, patterns, ..
            } => {
                let (truth, tau_abs) = mines.entry(*epoch).or_insert_with(|| {
                    let rows = survivors(&live);
                    let tau_abs =
                        bbs_tdb::SupportThreshold::Fraction(input.spec.tau).resolve(rows.len());
                    (oracle::fpgrowth(&rows, input.spec.tau), tau_abs)
                });
                if let Err(e) = check_mine(patterns, truth, *tau_abs) {
                    report.fail(format!("mine at epoch {epoch}: {e}"));
                }
            }
        }
    }
    for op in ops {
        apply(op, &mut live);
    }
    let survivors = survivors(&live);

    // The server's surviving rows are the generator's live sessions.
    let expected_live = generator_live(&input.spec, write.day, write.next_tid);
    let ours: BTreeSet<u64> = survivors.iter().map(|t| t.tid.0).collect();
    report.check(ours == expected_live, || {
        format!(
            "live TIDs: {} acknowledged, generator has {}",
            ours.len(),
            expected_live.len()
        )
    });
    let (db, _) = served.engines()[0].snapshot().load()?;
    report.check(db.transactions() == survivors.as_slice(), || {
        format!(
            "server holds {} live rows, expected {}",
            db.len(),
            survivors.len()
        )
    });
    // Every pool answer equals an offline BBS of the surviving rows.
    let bbs = offline_bbs(&survivors);
    let mut client = connect(served.addr())?;
    let mut io = IoStats::new();
    for chunk in input.pool.queries.chunks(FRAME_ITEMSETS) {
        let sets: Vec<&[u32]> = chunk.iter().map(Vec::as_slice).collect();
        report.attempted += 1;
        match client.count_many(&sets) {
            Ok(r) => {
                let want: Vec<u64> = chunk
                    .iter()
                    .map(|q| bbs.est_count(&oracle::itemset(q), &mut io))
                    .collect();
                if r.supports != want {
                    report.fail(
                        "end state: counts differ from an offline BBS of the surviving rows".into(),
                    );
                }
            }
            Err(e) => report.fail(format!("end-state count_many: {e}")),
        }
    }
    Ok(())
}

pub fn space_amp(dir: &Path, input: &Input, write: &WriteLog) -> f64 {
    let mut live = BTreeSet::new();
    for op in &write.ops {
        match op {
            Op::Insert { first_row, n, .. } => live.extend(*first_row..first_row + n),
            Op::Delete { tids, .. } => tids.iter().for_each(|t| {
                live.remove(t);
            }),
        }
    }
    let user: usize = live
        .iter()
        .map(|&t| input.rows[t as usize].record_bytes())
        .sum();
    dir_bytes(dir) as f64 / user as f64
}

pub fn report_writes(report: &mut Report, write: &WriteLog) {
    let w = write;
    report.provenance("writer_days_replayed", w.days_replayed.to_string());
    report.provenance("writer_end_s", crate::util::json_num(w.secs));
    report.provenance("writer_ran_out", w.ran_out.to_string());
    report.metric(
        "insert_p50_ms",
        w.insert_ms.median(),
        "ms",
        w.insert_ms.len(),
    );
    report.metric(
        "insert_p90_ms",
        w.insert_ms.quantile(0.9),
        "ms",
        w.insert_ms.len(),
    );
    report.metric(
        "delete_p50_ms",
        w.delete_ms.median(),
        "ms",
        w.delete_ms.len(),
    );
    report.metric(
        "ingest_txns_per_s",
        w.rows as f64 / w.secs,
        "1/s",
        w.insert_ms.len(),
    );
}
