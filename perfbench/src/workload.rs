//! What the workloads share: the query pool, the seeded read stream every
//! read client runs, and the repeated set-up that `setup_s` reports.

use crate::deploy::io_err;
use crate::oracle::Query;
use crate::trace::Tracer;
use crate::util::{Rng, Samples};
use bbs_core::Scheme;
use bbs_server::Client;
use bbs_tdb::SupportThreshold;
use std::io;
use std::time::Instant;

/// Itemsets per COUNT_MANY frame.
pub const FRAME_ITEMSETS: usize = 64;
/// Times each run sets the deployment up; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Input scale: the paper's sizes, or a micro scale for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Micro,
}

/// The queries a read client draws from.  `queries[..singles]` are the
/// single-COUNT pool; each template lists the query indices of one
/// miner-shaped COUNT_MANY frame (one prefix plus its extensions).
#[derive(Debug, Clone, Default)]
pub struct Pool {
    pub queries: Vec<Query>,
    pub singles: usize,
    pub templates: Vec<Vec<usize>>,
}

impl Pool {
    /// Appends a template whose itemsets are `prefix ∪ {x}` for each `x`.
    pub fn push_template(&mut self, prefix: &[u32], extensions: &[u32]) {
        let mut idx = Vec::with_capacity(extensions.len());
        for &x in extensions {
            let mut q: Query = prefix.to_vec();
            q.push(x);
            q.sort_unstable();
            q.dedup();
            idx.push(self.queries.len());
            self.queries.push(q);
        }
        self.templates.push(idx);
    }
}

/// The read client's request mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// One MINE after every this many COUNT/COUNT_MANY frames.
    pub mine_every: usize,
    /// Mining threshold as a fraction of the rows.
    pub tau: f64,
}

/// One answer, kept for checking after the timed phase.
pub enum Answer {
    Count {
        q: usize,
        epoch: u64,
        support: u64,
    },
    Many {
        t: usize,
        epoch: u64,
        supports: Vec<u64>,
    },
    Mine {
        epoch: u64,
        rows: u64,
        patterns: Vec<(Vec<u32>, u64, bool)>,
    },
}

/// Frames per block of a traced stream; odd blocks are traced.
const TRACE_BLOCK: usize = 256;

/// What a read client measured and received.
#[derive(Default)]
pub struct ReadLog {
    /// COUNT latencies of untraced frames.
    pub count_us: Samples,
    /// COUNT latencies of traced frames (a traced stream only).
    pub traced_count_us: Samples,
    pub count_many_us: Samples,
    pub mine_ms: Samples,
    /// Itemsets answered by COUNT and COUNT_MANY.
    pub itemsets: u64,
    /// Seconds spent waiting on COUNT and COUNT_MANY replies.
    pub read_secs: f64,
    pub attempted: u64,
    pub errors: Vec<String>,
    pub answers: Vec<Answer>,
}

pub fn mine_request(tau: f64) -> (Scheme, SupportThreshold) {
    (Scheme::Dfp, SupportThreshold::Fraction(tau))
}

/// Runs the seeded closed-loop read stream until `deadline`: each frame is
/// a COUNT of a pool itemset or a COUNT_MANY of a template (even odds),
/// and every `mix.mine_every` frames one DFP MINE.  Each call waits for its
/// reply before the next is sent.  With a tracer, every call of alternate
/// blocks of frames is a span, so traced and untraced COUNTs see the same
/// state and their p50s give the tracing overhead.
pub fn read_stream(
    client: &mut Client,
    pool: &Pool,
    mix: Mix,
    seed: u64,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> ReadLog {
    let mut rng = Rng::new(seed);
    let mut log = ReadLog::default();
    let mut frame = 0usize;
    while Instant::now() < deadline {
        frame += 1;
        log.attempted += 1;
        let req = log.attempted;
        let traced = tracer.is_some() && (frame / TRACE_BLOCK) % 2 == 1;
        let span = |tracer: &mut Option<&mut Tracer>, name, t0| {
            if let Some(t) = tracer.as_deref_mut().filter(|_| traced) {
                t.record(name, t0, None, req);
            }
        };
        if frame.is_multiple_of(mix.mine_every + 1) {
            let (scheme, threshold) = mine_request(mix.tau);
            let t0 = Instant::now();
            let r = client.mine(scheme, threshold, 0);
            log.mine_ms.since(t0, 1e3);
            span(&mut tracer, "client.mine", t0);
            match r {
                Ok(m) => log.answers.push(Answer::Mine {
                    epoch: m.epoch,
                    rows: m.rows,
                    patterns: m.patterns,
                }),
                Err(e) => log.errors.push(format!("mine: {e}")),
            }
        } else if rng.next_u64() & 1 == 0 {
            let q = rng.below(pool.singles);
            let t0 = Instant::now();
            let r = client.count(&pool.queries[q]);
            let secs = t0.elapsed().as_secs_f64();
            let samples = if traced {
                &mut log.traced_count_us
            } else {
                &mut log.count_us
            };
            samples.push(secs * 1e6);
            log.read_secs += secs;
            span(&mut tracer, "client.count", t0);
            match r {
                Ok(c) => {
                    log.itemsets += 1;
                    log.answers.push(Answer::Count {
                        q,
                        epoch: c.epoch,
                        support: c.support,
                    });
                }
                Err(e) => log.errors.push(format!("count: {e}")),
            }
        } else {
            let t = rng.below(pool.templates.len());
            let sets: Vec<&[u32]> = pool.templates[t]
                .iter()
                .map(|&q| pool.queries[q].as_slice())
                .collect();
            let t0 = Instant::now();
            let r = client.count_many(&sets);
            let secs = t0.elapsed().as_secs_f64();
            log.count_many_us.push(secs * 1e6);
            log.read_secs += secs;
            span(&mut tracer, "client.count_many", t0);
            match r {
                Ok(c) => {
                    log.itemsets += sets.len() as u64;
                    log.answers.push(Answer::Many {
                        t,
                        epoch: c.epoch,
                        supports: c.supports,
                    });
                }
                Err(e) => log.errors.push(format!("count_many: {e}")),
            }
        }
    }
    log
}

/// One pass over the whole pool in COUNT_MANY frames, so the caches hold
/// every slice the stream touches before timing starts.
pub fn warm(client: &mut Client, pool: &Pool) -> io::Result<()> {
    for chunk in pool.queries.chunks(FRAME_ITEMSETS) {
        let sets: Vec<&[u32]> = chunk.iter().map(Vec::as_slice).collect();
        client.count_many(&sets).map_err(io_err)?;
    }
    Ok(())
}

/// Sets up `SETUPS` times, tearing each deployment down before the next
/// except the last, which is returned with the set-up times in seconds.
pub fn repeat_setup<T>(
    mut once: impl FnMut(usize) -> io::Result<T>,
    mut teardown: impl FnMut(T),
) -> io::Result<(T, Samples)> {
    let mut times = Samples::default();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let built = once(i)?;
        times.since(t0, 1.0);
        if i + 1 == SETUPS {
            return Ok((built, times));
        }
        teardown(built);
    }
    unreachable!("SETUPS > 0")
}

/// Reports the shared read metrics of a [`ReadLog`].
pub fn report_reads(report: &mut crate::report::Report, log: &ReadLog) {
    let (counts, manys) = (log.count_us.len(), log.count_many_us.len());
    let rows: [(&str, f64, &'static str, usize); 6] = [
        ("count_p50_us", log.count_us.median(), "us", counts),
        ("count_p99_us", log.count_us.quantile(0.99), "us", counts),
        ("count_many_p50_us", log.count_many_us.median(), "us", manys),
        (
            "count_many_p99_us",
            log.count_many_us.quantile(0.99),
            "us",
            manys,
        ),
        (
            "itemsets_per_s",
            log.itemsets as f64 / log.read_secs,
            "1/s",
            counts + manys,
        ),
        ("mine_p50_ms", log.mine_ms.median(), "ms", log.mine_ms.len()),
    ];
    for (name, value, unit, n) in rows {
        report.metric(name, value, unit, n);
    }
}
