//! `perfbench` — the repository's layered benchmark.
//!
//! ```text
//! perfbench --workload <quest-query|quest-scatter|weblog-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process generates all load through the public client over loopback
//! TCP, checks every answer against an offline oracle, and prints one JSON
//! line last: `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end metrics untraced, the per-layer rows with `--trace 1`).  The
//! full result, with provenance and sample counts, goes to
//! `.perfbench/results/`; the traced run's spans go beside it.  See
//! `perfbench/README.md` for the workloads and the metric glossary.

mod deploy;
mod layers;
mod oracle;
mod quest;
mod report;
mod trace;
mod util;
mod weblog;
mod workload;

#[cfg(test)]
mod tests;

use deploy::{connect, Served, CACHE_PAGES, WIDTH};
use report::Report;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{json_num, json_str, sub_seed};
use workload::{read_stream, repeat_setup, report_reads, ReadLog, Scale};

pub const WORKLOADS: [&str; 3] = ["quest-query", "quest-scatter", "weblog-churn"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Paper scale from the command line; micro scale in the self-tests.
    pub scale: Scale,
    /// Where deployments, results and traces go.
    pub root: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Paper,
        root: PathBuf::from(".perfbench"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for f in &report.failures {
                eprintln!("perfbench: FAILED {f}");
            }
            println!("{}", report.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload and writes its result file.
pub fn run(args: &Args) -> io::Result<Report> {
    let work = args.root.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work)?;
    let mut report = Report::default();
    provenance(&mut report, args);
    let mut tracer = Tracer::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("weblog-churn", false) => run_weblog(args, &work, &mut report),
        ("weblog-churn", true) => trace_weblog(args, &work, &mut report, &mut tracer),
        (w, false) => run_quest(args, w == "quest-scatter", &work, &mut report),
        (w, true) => trace_quest(args, w == "quest-scatter", &work, &mut report, &mut tracer),
    };
    std::fs::remove_dir_all(&work).ok();
    result?;
    report.metric(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted as usize,
    );
    let results = args.root.join("results");
    std::fs::create_dir_all(&results)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(results.join(format!("{stem}.json")), report.result_file())?;
    if args.trace {
        std::fs::write(results.join(format!("{stem}.spans.json")), tracer.to_json())?;
    }
    Ok(report)
}

fn provenance(report: &mut Report, args: &Args) {
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    report.provenance("git_rev", json_str(&rev));
    report.provenance(
        "host_cpus",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    report.provenance(
        "kernel_tier",
        json_str(bbs_bitslice::ops_simd::active_tier().name()),
    );
    report.provenance("workload", json_str(&args.workload));
    report.provenance("seed", args.seed.to_string());
    report.provenance("seconds", args.seconds.to_string());
    report.provenance("trace", args.trace.to_string());
    report.provenance("scale", json_str(&format!("{:?}", args.scale)));
    let cfg = deploy::server_config();
    report.provenance(
        "server",
        format!(
            "{{\"width\": {}, \"cache_pages\": {}, \"commit_window_ms\": {}, \"fsync\": \"every commit\", \"mine_threads\": {}}}",
            cfg.width,
            cfg.cache_pages,
            cfg.commit_window.as_millis(),
            bbs_server::resolve_threads(cfg.mine_threads)
        ),
    );
}

/// Rows, slice pages against the cache, and pool size of a workload.
fn provenance_data(
    report: &mut Report,
    rows_total: usize,
    rows_live: usize,
    pool: &workload::Pool,
) {
    let chunks = rows_total.div_ceil(bbs_storage::CHUNK_ROWS);
    let slice_pages = chunks * WIDTH;
    report.provenance("rows_total", rows_total.to_string());
    report.provenance("rows_live", rows_live.to_string());
    report.provenance("slice_pages", slice_pages.to_string());
    report.provenance("cache_pages", CACHE_PAGES.to_string());
    report.provenance("cache_resident", (slice_pages <= CACHE_PAGES).to_string());
    report.provenance("pool_itemsets", pool.singles.to_string());
    report.provenance("pool_templates", pool.templates.len().to_string());
    report.provenance("frame_itemsets", workload::FRAME_ITEMSETS.to_string());
}

fn deadline(secs: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(secs)
}

/// The `peak_rss_mb` window: it opens once the inputs are prepared and
/// closes as the timed stream returns, so the peak covers set-up and the
/// stream but not the offline truth or the checks after them.
struct RssWindow;

impl RssWindow {
    fn open(report: &mut Report) -> RssWindow {
        let reset = util::reset_peak_rss();
        report.provenance(
            "peak_rss_window",
            json_str(if reset {
                "set-up and timed stream"
            } else {
                "whole process (peak reset unavailable)"
            }),
        );
        report.provenance("rss_at_window_start_mb", json_num(util::peak_rss_mb()));
        RssWindow
    }

    fn close(self, report: &mut Report) {
        report.metric("peak_rss_mb", util::peak_rss_mb(), "MB", 1);
    }
}

fn teardown((served, dir): (Served, PathBuf)) {
    served.stop();
    std::fs::remove_dir_all(dir).ok();
}

fn run_quest(args: &Args, scatter: bool, work: &Path, report: &mut Report) -> io::Result<()> {
    let input = quest::prepare(args.scale, args.seed);
    provenance_data(report, input.rows.len(), input.rows.len(), &input.pool);
    let mut load = quest::LoadLog::default();
    let rss = RssWindow::open(report);
    let ((served, dir), setup) = repeat_setup(
        |i| {
            let dir = work.join(format!("setup-{i}"));
            Ok((
                quest::setup(&input, scatter, &dir, None, &mut load, report)?,
                dir,
            ))
        },
        teardown,
    )?;
    let result = (|| {
        let mut client = connect(served.addr())?;
        let mix = quest::mix(&input.spec);
        let log = read_stream(
            &mut client,
            &input.pool,
            mix,
            sub_seed(args.seed, 6),
            deadline(args.seconds),
            None,
        );
        rss.close(report);
        quest::check(&input, &log, report);
        report_reads(report, &log);
        quest::report_load(report, &load, &setup);
        report.metric("space_amp", quest::space_amp(&dir, &input.rows), "ratio", 1);
        Ok(())
    })();
    teardown((served, dir));
    result
}

fn run_weblog(args: &Args, work: &Path, report: &mut Report) -> io::Result<()> {
    let input = weblog::prepare(args.scale, args.seed);
    let rss = RssWindow::open(report);
    let (((served, dir), setup_log), setup) = repeat_setup(
        |i| {
            let dir = work.join(format!("setup-{i}"));
            let (served, log) = weblog::setup(&input, &dir, None)?;
            Ok(((served, dir), log))
        },
        |(s, _)| teardown(s),
    )?;
    let result = (|| {
        let (write, read) =
            weblog::stream(&input, &served, setup_log, args.seed, args.seconds, None)?;
        rss.close(report);
        weblog::check(&input, &served, &write, &read, report)?;
        report_reads(report, &read);
        weblog::report_writes(report, &write);
        report.metric("setup_s", setup.median(), "s", setup.len());
        report.metric(
            "space_amp",
            weblog::space_amp(&dir, &input, &write),
            "ratio",
            1,
        );
        let live = served.engines()[0].snapshot().live_rows() as usize;
        provenance_data(report, write.next_tid as usize, live, &input.pool);
        Ok(())
    })();
    teardown((served, dir));
    result
}

/// Cache, pager and hot-slice counters summed over `engines`' snapshots.
fn cache_counters(engines: &[std::sync::Arc<bbs_server::Engine>]) -> [f64; 7] {
    let mut c = [0f64; 7];
    for e in engines {
        let s = e.snapshot();
        let (cache, pager, hot) = (s.cache_stats(), s.pager_stats(), s.hot_stats());
        for (slot, v) in c.iter_mut().zip([
            cache.hits,
            cache.misses,
            cache.evictions,
            pager.reads,
            pager.verified,
            hot.hits,
            hot.decodes,
        ]) {
            *slot += v as f64;
        }
    }
    c
}

/// Reports the page-cache rows from counter deltas over a window in which
/// `itemsets` itemsets were counted.
fn report_cache(report: &mut Report, before: [f64; 7], after: [f64; 7], itemsets: u64) {
    let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let per_k = |v: f64| v * 1000.0 / itemsets.max(1) as f64;
    let n = itemsets as usize;
    report.metric(
        "storage.cache.hit_ratio",
        d[0] / (d[0] + d[1]).max(1.0),
        "ratio",
        n,
    );
    report.metric(
        "storage.cache.evictions_per_kquery",
        per_k(d[2]),
        "count",
        n,
    );
    report.metric("storage.pager.reads_per_kquery", per_k(d[3]), "count", n);
    report.metric("storage.pager.verified_per_kquery", per_k(d[4]), "count", n);
    report.metric(
        "storage.hot.hit_ratio",
        d[5] / (d[5] + d[6]).max(1.0),
        "ratio",
        n,
    );
}

/// `trace.overhead_pct`: the COUNT p50 of the traced blocks of frames
/// against that of the untraced blocks.
fn report_overhead(report: &mut Report, log: &ReadLog) {
    report.metric(
        "trace.overhead_pct",
        (log.traced_count_us.median() / log.count_us.median() - 1.0) * 100.0,
        "%",
        log.count_us.len() + log.traced_count_us.len(),
    );
}

fn trace_quest(
    args: &Args,
    scatter: bool,
    work: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let input = quest::prepare(args.scale, args.seed);
    provenance_data(report, input.rows.len(), input.rows.len(), &input.pool);
    let mut load = quest::LoadLog::default();
    let unix = work.join("single.sock");
    let dir = work.join("setup");
    let own_unix = (!scatter).then(|| unix.clone());
    let rss = RssWindow::open(report);
    let t0 = Instant::now();
    let served = quest::setup(&input, scatter, &dir, own_unix, &mut load, report)?;
    let mut setup = util::Samples::default();
    setup.since(t0, 1.0);
    let single_dir = work.join("single");
    let single = if scatter {
        // The one-node rows beneath the coordinator's, on the same rows.
        let s = Served::single(&single_dir, Some(unix.clone()))?;
        let mut c = connect(s.addr())?;
        for chunk in oracle::wire_rows(&input.rows).chunks(4096) {
            c.insert(chunk).map_err(deploy::io_err)?;
        }
        Some(s)
    } else {
        None
    };
    let result = (|| {
        let mut client = connect(served.addr())?;
        let mix = quest::mix(&input.spec);
        let engines = served.engines();
        let before = cache_counters(&engines);
        let log = read_stream(
            &mut client,
            &input.pool,
            mix,
            sub_seed(args.seed, 6),
            deadline(args.seconds),
            Some(tracer),
        );
        rss.close(report);
        report_cache(report, before, cache_counters(&engines), log.itemsets);
        report.provenance("cache_window", json_str("the read stream"));
        quest::check(&input, &log, report);
        report_overhead(report, &log);
        report_reads(report, &log);
        quest::report_load(report, &load, &setup);
        // Quest rows replayed through the commit path as the bulk load
        // wrote them, plus one no-op delete of absent TIDs.
        let mut replay: Vec<layers::Write> = input
            .rows
            .chunks(500)
            .map(|c| layers::Write::Insert(c.to_vec()))
            .collect();
        replay.push(layers::Write::Delete(vec![
            input.rows.len() as u64 + 1_000_000,
        ]));
        let (single_served, base) = match &single {
            Some(s) => (s, single_dir.join("node")),
            None => (&served, dir.join("node")),
        };
        layers::measure(
            &layers::Inputs {
                rows: &input.rows,
                pool: &input.pool,
                tau: input.spec.tau,
                base: &[],
                replay: &replay,
                single: single_served,
                single_base: &base,
                unix: &unix,
            },
            tracer,
            report,
            work,
        )
    })();
    served.stop();
    if let Some(s) = single {
        s.stop();
    }
    result
}

/// Stream days the traced run replays through the commit path.
const REPLAY_DAYS: usize = 2;

fn trace_weblog(
    args: &Args,
    work: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let input = weblog::prepare(args.scale, args.seed);
    let unix = work.join("single.sock");
    let dir = work.join("setup");
    let rss = RssWindow::open(report);
    let (served, setup_log) = weblog::setup(&input, &dir, Some(unix.clone()))?;
    let result = (|| {
        let (write, read) = weblog::stream(
            &input,
            &served,
            setup_log,
            args.seed,
            args.seconds,
            Some(&mut *tracer),
        )?;
        rss.close(report);
        weblog::check(&input, &served, &write, &read, report)?;
        report_overhead(report, &read);
        report_reads(report, &read);
        weblog::report_writes(report, &write);
        let engines = served.engines();
        let snap = engines[0].snapshot();
        provenance_data(
            report,
            write.next_tid as usize,
            snap.live_rows() as usize,
            &input.pool,
        );
        // The stream's snapshots change with every commit, so the cache
        // rows replay the pool against the final snapshot instead.
        let before = cache_counters(&engines);
        let mut itemsets = 0u64;
        for q in &input.pool.queries[..input.pool.singles] {
            snap.count(&oracle::itemset(q))?;
            itemsets += 1;
        }
        for t in &input.pool.templates {
            let sets: Vec<_> = t
                .iter()
                .map(|&q| oracle::itemset(&input.pool.queries[q]))
                .collect();
            snap.count_many(&sets)?;
            itemsets += sets.len() as u64;
        }
        report_cache(report, before, cache_counters(&engines), itemsets);
        report.provenance(
            "cache_window",
            json_str("pool replay on the final snapshot"),
        );
        let (live, _) = snap.load()?;
        drop(snap);
        let writes = |days: &[weblog::Day], batch: usize| -> Vec<layers::Write> {
            let mut w = Vec::new();
            for d in days {
                w.extend(
                    d.expired_tids
                        .chunks(input.spec.delete_batch)
                        .map(|c| layers::Write::Delete(c.to_vec())),
                );
                w.extend(
                    input.rows[d.rows.clone()]
                        .chunks(batch)
                        .map(|c| layers::Write::Insert(c.to_vec())),
                );
            }
            w
        };
        let (days, bulk) = (&input.days, input.spec.bulk_days);
        let base = writes(&days[..bulk], input.spec.load_batch);
        let replay = writes(&days[bulk..bulk + REPLAY_DAYS], input.spec.insert_batch);
        layers::measure(
            &layers::Inputs {
                rows: live.transactions(),
                pool: &input.pool,
                tau: input.spec.tau,
                base: &base,
                replay: &replay,
                single: &served,
                single_base: &dir.join("node"),
                unix: &unix,
            },
            tracer,
            report,
            work,
        )
    })();
    served.stop();
    result
}
