//! Self-tests at micro scale: every workload completes with nothing
//! failed, the answer gate fires on a wrong expected answer, and the seed
//! alone fixes the data.

use super::*;
use crate::oracle::check_mine;
use crate::workload::{Answer, Mix};

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 13] = [
    "setup_s",
    "count_p50_us",
    "count_p99_us",
    "count_many_p50_us",
    "count_many_p99_us",
    "itemsets_per_s",
    "mine_p50_ms",
    "insert_p50_ms",
    "insert_p90_ms",
    "delete_p50_ms",
    "ingest_txns_per_s",
    "space_amp",
    "peak_rss_mb",
];

fn micro(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: 5,
        // A traced stream needs two blocks of frames, one of them traced,
        // even on a loaded host.
        seconds: if trace { 3.0 } else { 1.0 },
        trace,
        scale: Scale::Micro,
        root: PathBuf::from(format!(".perfbench/test-{workload}-{trace}")),
    }
}

#[test]
fn every_workload_completes_at_micro_scale() {
    for w in WORKLOADS {
        let r = run(&micro(w, false)).expect("run");
        assert!(r.correct(), "{w}: {:?}", r.failures);
        for name in END_TO_END {
            let v = r.get(name).unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn every_traced_run_completes_at_micro_scale() {
    for w in WORKLOADS {
        let r = run(&micro(w, true)).expect("traced run");
        assert!(r.correct(), "{w}: {:?}", r.failures);
        for name in [
            "trace.overhead_pct",
            "bitslice.and_count_ns",
            "storage.snapshot.count_ns",
            "server.engine.count_ns",
            "client.count_us",
            "storage.io.slices.syncs_per_commit",
            "shard.router.count_us",
            "remote.coordinator.mine_ms",
            "baseline.fpgrowth_mine_ms",
        ] {
            assert!(
                r.get(name).is_some_and(f64::is_finite),
                "{w}: {name} missing"
            );
        }
    }
}

#[test]
fn a_wrong_expected_answer_is_counted_as_failed() {
    let dir = PathBuf::from(".perfbench/test-gate");
    let mut input = quest::prepare(Scale::Micro, 9);
    let mut report = Report::default();
    let served = quest::setup(
        &input,
        false,
        &dir.join("quest"),
        None,
        &mut quest::LoadLog::default(),
        &mut report,
    )
    .expect("setup");
    let mut client = connect(served.addr()).expect("connect");
    let mix = Mix {
        mine_every: 5,
        tau: input.spec.tau,
    };
    let log = read_stream(&mut client, &input.pool, mix, 3, deadline(0.3), None);
    served.stop();
    let mut clean = Report::default();
    quest::check(&input, &log, &mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.failures);

    // Off by one on the first COUNT answered: exactly that answer fails.
    let first = log
        .answers
        .iter()
        .find_map(|a| match a {
            Answer::Count { q, .. } => Some(*q),
            _ => None,
        })
        .expect("some COUNT answered");
    input.expected.est[first] += 1;
    let mut wrong = Report::default();
    quest::check(&input, &log, &mut wrong);
    assert!(wrong.failed > 0 && !wrong.correct());

    // A mine missing one pattern, or reporting a support off by one.
    let mut patterns: Vec<(Vec<u32>, u64, bool)> = input
        .expected
        .frequent
        .iter()
        .map(|(s, c)| (s.items().iter().map(|i| i.0).collect(), c, false))
        .collect();
    assert!(check_mine(&patterns, &input.expected.frequent, input.expected.tau_abs).is_ok());
    patterns[0].1 += 1;
    assert!(check_mine(&patterns, &input.expected.frequent, input.expected.tau_abs).is_err());
    patterns.pop();
    assert!(check_mine(&patterns, &input.expected.frequent, input.expected.tau_abs).is_err());

    // weblog-churn: forgetting one acknowledged insert breaks the live set.
    let input = weblog::prepare(Scale::Micro, 9);
    let (served, setup_log) = weblog::setup(&input, &dir.join("weblog"), None).expect("setup");
    let (mut write, read) =
        weblog::stream(&input, &served, setup_log, 9, 0.5, None).expect("stream");
    let mut clean = Report::default();
    weblog::check(&input, &served, &write, &read, &mut clean).expect("check");
    assert_eq!(clean.failed, 0, "{:?}", clean.failures);
    // A writer that replays every day before the deadline fails the run.
    assert!(!write.ran_out);
    write.ran_out = true;
    let mut ran_out = Report::default();
    weblog::check(&input, &served, &write, &read, &mut ran_out).expect("check");
    assert!(ran_out.failed > 0);
    write.ran_out = false;
    let last_insert = write
        .ops
        .iter()
        .rposition(|op| matches!(op, weblog::Op::Insert { .. }))
        .expect("an insert");
    write.ops.remove(last_insert);
    let mut wrong = Report::default();
    weblog::check(&input, &served, &write, &read, &mut wrong).expect("check");
    assert!(wrong.failed > 0);
    served.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_seed_fixes_the_data() {
    let q = |seed| quest::rows(&quest::spec(Scale::Micro, seed));
    assert_eq!(q(1), q(1));
    assert_ne!(q(1), q(2));
    let w = |seed| weblog::prepare(Scale::Micro, seed);
    let (a, b, c) = (w(1), w(1), w(2));
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.pool.queries, b.pool.queries);
    assert_ne!(a.rows, c.rows);
    let qa = quest::prepare(Scale::Micro, 1);
    let qb = quest::prepare(Scale::Micro, 1);
    assert_eq!(qa.pool.queries, qb.pool.queries);
    assert_eq!(qa.pool.templates, qb.pool.templates);
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    assert!(
        args("--workload quest-query --seed 3 --seconds 2 --trace 1")
            .is_ok_and(|a| a.trace && a.seed == 3)
    );
    assert!(args("--workload nope").is_err());
    assert!(args("--workload quest-query --seconds 0").is_err());
    assert!(args("--workload quest-query --bogus 1").is_err());
}
