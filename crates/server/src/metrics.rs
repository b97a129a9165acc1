//! Server observability: lock-free per-endpoint counters and log-linear
//! histograms, rendered as the JSON document the `stats` endpoint serves.
//!
//! Everything here is plain atomics — recording a sample on the request
//! path is a handful of relaxed fetch-adds, cheap enough to leave on
//! unconditionally.  Histograms split every power of two into
//! [`SUB_BUCKETS`] equal sub-buckets (values below `SUB_BUCKETS` get one
//! exact bucket each), so a bucket is at most 1/8 = 12.5 % wider than its
//! lower bound across the whole `u64` range: plenty for microsecond
//! latencies and batch sizes alike.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two.
const SUB_BUCKETS: usize = 8;
/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Exact buckets `0..SUB_BUCKETS`, then `SUB_BUCKETS` per power of two
/// from `2^SUB_BITS` up to `2^63`.
const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// A log-linear histogram of `u64` samples (latencies in µs, batch
/// sizes, queue depths — anything positive and heavy-tailed).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    // `value` = 1.sss… × 2^exp: the power of two picks the group, the
    // SUB_BITS bits after the leading one pick the sub-bucket.
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
    SUB_BUCKETS * (shift as usize + 1) + sub
}

/// Largest value bucket `i` holds.
fn bucket_max(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let shift = (i / SUB_BUCKETS - 1) as u32;
    let lower = ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << shift;
    lower + ((1u64 << shift) - 1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `q`-th sample (so p99 reads as "99% of samples were
    /// at most this"), at most 12.5 % above that sample and never above
    /// [`Histogram::max`].  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_max(i).min(self.max());
            }
        }
        self.max()
    }

    /// Renders the summary (count/mean/p50/p99/max) as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            self.count(),
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// Counters for one wire endpoint.
#[derive(Default)]
pub struct Endpoint {
    /// Requests that reached the handler.
    pub requests: AtomicU64,
    /// Requests that returned an error response.
    pub errors: AtomicU64,
    /// Handler latency in microseconds.
    pub latency_us: Histogram,
}

impl Endpoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"errors\":{},\"latency_us\":{}}}",
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.latency_us.to_json()
        )
    }
}

/// All server metrics, shared between connection handlers, the committer
/// thread, and the `stats` endpoint.
#[derive(Default)]
pub struct ServerMetrics {
    /// Per-endpoint request counters, indexed by opcode name.
    pub ping: Endpoint,
    /// `count` endpoint.
    pub count: Endpoint,
    /// `insert` endpoint (latency includes queue wait + group commit).
    pub insert: Endpoint,
    /// `mine` endpoint.
    pub mine: Endpoint,
    /// `probe` endpoint.
    pub probe: Endpoint,
    /// `stats` endpoint.
    pub stats: Endpoint,
    /// `replicate` endpoint (followers pulling log entries).
    pub replicate: Endpoint,
    /// `promote` endpoint.
    pub promote: Endpoint,
    /// `count_many` endpoint (batched counting; latency covers the whole
    /// batch).
    pub count_many: Endpoint,
    /// `delete` endpoint (tombstone deletes by TID).
    pub delete: Endpoint,
    /// `maintain` endpoint (FPR probes, compactions, folds).
    pub maintain: Endpoint,
    /// Itemsets per `count_many` batch.
    pub count_many_batch: Histogram,
    /// Requests rejected by admission control.
    pub overloaded: AtomicU64,
    /// Inserts answered from the exactly-once window instead of appending
    /// (each one is a detected client retry).
    pub dedup_hits: AtomicU64,
    /// Group commits rejected because the disk was out of space.
    pub disk_full: AtomicU64,
    /// Frames that failed to parse (torn, truncated, or corrupted).
    pub frame_errors: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Current depth of the ingest queue (gauge).
    pub queue_depth: AtomicU64,
    /// Transactions per group commit.
    pub batch_size: Histogram,
    /// Group-commit latency in microseconds (append + flush + publish).
    pub commit_us: Histogram,
    /// Writes rejected on a follower with the typed `NotPrimary` status.
    pub not_primary: AtomicU64,
    /// Role transitions follower → primary (manual or automatic).
    pub promotions: AtomicU64,
    /// Rows the primary has committed beyond what this follower has
    /// applied, sampled after each replication poll (gauge; 0 on a
    /// primary).
    pub replication_lag_rows: AtomicU64,
    /// Batches a follower applied through its commit path.
    pub follower_applied_batches: AtomicU64,
    /// Latency of one follower apply (commit of one pulled batch), µs.
    pub follower_apply_us: Histogram,
    /// Rows applied per replication poll round-trip.
    pub follower_pull_rows: Histogram,
    /// Wipe-resyncs this follower performed after the primary's log could
    /// no longer serve its cursor (e.g. the primary compacted).
    pub follower_resyncs: AtomicU64,
    /// Pins dropped from the snapshot pin table — LRU overflow plus
    /// invalidation after a compaction/fold swapped the files out from
    /// under them.
    pub pin_evictions: AtomicU64,
    /// Requests that named a pinned epoch no longer in the table (the
    /// caller re-pins and retries).
    pub stale_pins: AtomicU64,
    /// Maintenance policy evaluations (manual `AUTO` requests plus the
    /// background thread's ticks).
    pub maintenance_runs: AtomicU64,
    /// Compactions performed by maintenance (policy or explicit).
    pub maintenance_compactions: AtomicU64,
    /// Folds performed by maintenance (policy or explicit).
    pub maintenance_folds: AtomicU64,
    /// The most recent measured false-positive rate, stored as `f64`
    /// bits (gauge; 0.0 until the first probe).
    pub last_measured_fpr_bits: AtomicU64,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// The endpoint slot for `opcode`, if it is a tracked endpoint.
    pub fn endpoint(&self, opcode: u8) -> Option<&Endpoint> {
        use crate::proto::op;
        match opcode {
            op::PING => Some(&self.ping),
            op::COUNT => Some(&self.count),
            op::INSERT => Some(&self.insert),
            op::MINE => Some(&self.mine),
            op::PROBE => Some(&self.probe),
            op::STATS => Some(&self.stats),
            op::REPLICATE => Some(&self.replicate),
            op::PROMOTE => Some(&self.promote),
            op::COUNT_MANY => Some(&self.count_many),
            op::DELETE => Some(&self.delete),
            op::MAINTAIN => Some(&self.maintain),
            _ => None,
        }
    }

    /// Renders the metrics (plus caller-supplied engine fields) as JSON.
    ///
    /// `extra` is a list of already-rendered `"key":value` fragments the
    /// engine contributes (epoch, rows, storage counters).
    pub fn to_json(&self, extra: &[String]) -> String {
        let mut fields = vec![
            format!("\"ping\":{}", self.ping.to_json()),
            format!("\"count\":{}", self.count.to_json()),
            format!("\"insert\":{}", self.insert.to_json()),
            format!("\"mine\":{}", self.mine.to_json()),
            format!("\"probe\":{}", self.probe.to_json()),
            format!("\"stats\":{}", self.stats.to_json()),
            format!("\"replicate\":{}", self.replicate.to_json()),
            format!("\"promote\":{}", self.promote.to_json()),
            format!("\"count_many\":{}", self.count_many.to_json()),
            format!("\"delete\":{}", self.delete.to_json()),
            format!("\"maintain\":{}", self.maintain.to_json()),
            format!(
                "\"count_many_batch\":{}",
                self.count_many_batch.to_json()
            ),
            format!("\"overloaded\":{}", self.overloaded.load(Ordering::Relaxed)),
            format!("\"dedup_hits\":{}", self.dedup_hits.load(Ordering::Relaxed)),
            format!("\"disk_full\":{}", self.disk_full.load(Ordering::Relaxed)),
            format!(
                "\"frame_errors\":{}",
                self.frame_errors.load(Ordering::Relaxed)
            ),
            format!(
                "\"connections\":{}",
                self.connections.load(Ordering::Relaxed)
            ),
            format!(
                "\"queue_depth\":{}",
                self.queue_depth.load(Ordering::Relaxed)
            ),
            format!("\"batch_size\":{}", self.batch_size.to_json()),
            format!("\"commit_us\":{}", self.commit_us.to_json()),
            format!(
                "\"not_primary\":{}",
                self.not_primary.load(Ordering::Relaxed)
            ),
            format!("\"promotions\":{}", self.promotions.load(Ordering::Relaxed)),
            format!(
                "\"replication_lag_rows\":{}",
                self.replication_lag_rows.load(Ordering::Relaxed)
            ),
            format!(
                "\"follower_applied_batches\":{}",
                self.follower_applied_batches.load(Ordering::Relaxed)
            ),
            format!(
                "\"follower_apply_us\":{}",
                self.follower_apply_us.to_json()
            ),
            format!(
                "\"follower_pull_rows\":{}",
                self.follower_pull_rows.to_json()
            ),
            format!(
                "\"follower_resyncs\":{}",
                self.follower_resyncs.load(Ordering::Relaxed)
            ),
            format!(
                "\"pin_evictions\":{}",
                self.pin_evictions.load(Ordering::Relaxed)
            ),
            format!("\"stale_pins\":{}", self.stale_pins.load(Ordering::Relaxed)),
            format!(
                "\"maintenance_runs\":{}",
                self.maintenance_runs.load(Ordering::Relaxed)
            ),
            format!(
                "\"maintenance_compactions\":{}",
                self.maintenance_compactions.load(Ordering::Relaxed)
            ),
            format!(
                "\"maintenance_folds\":{}",
                self.maintenance_folds.load(Ordering::Relaxed)
            ),
            format!(
                "\"last_measured_fpr\":{:.6}",
                f64::from_bits(self.last_measured_fpr_bits.load(Ordering::Relaxed))
            ),
        ];
        fields.extend(extra.iter().cloned());
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_linear() {
        // Small values get exact buckets.
        for v in 0..8u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_max(v as usize), v);
        }
        // 8..16 is the first split power of two: still one value each.
        assert_eq!((bucket_of(8), bucket_of(15)), (8, 15));
        // 16..32 splits into 8 sub-buckets of 2 values each.
        assert_eq!((bucket_of(16), bucket_of(17), bucket_of(18)), (16, 16, 17));
        assert_eq!(bucket_max(16), 17);
        // 1024 = 2^10 starts a group; 1023 ends the previous one.
        assert_eq!(bucket_of(1024), bucket_of(1023) + 1);
        assert_eq!(bucket_max(bucket_of(1023)), 1023);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_max(BUCKETS - 1), u64::MAX);
        // Buckets tile the range: every bucket starts one past the last.
        for i in 1..BUCKETS {
            assert_eq!(bucket_of(bucket_max(i - 1) + 1), i, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_are_within_an_eighth_and_never_above_max() {
        // Resolution: with a larger sample beside it, p50 reads the upper
        // bound of the smaller sample's bucket, at most 12.5 % above it.
        let mut v = 1u64;
        while v < u64::MAX / 16 {
            for probe in [v, v + 1, v * 3 / 2, 2 * v - 1] {
                let h = Histogram::new();
                h.record(probe);
                h.record(probe.saturating_mul(4));
                let got = h.quantile(0.5);
                assert!(got >= probe, "{got} < {probe}");
                assert!(
                    (got - probe) as f64 <= probe as f64 / 8.0,
                    "{got} more than 12.5% above {probe}"
                );
            }
            v *= 2;
        }
        // The bench figures that read above their own maximum: a mine p50
        // in the top bucket, and an insert p50 of one repeated sample.
        let h = Histogram::new();
        for sample in [12_000u64, 16_000, 21_137, 21_000, 20_500] {
            h.record(sample);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert!(h.quantile(q) <= h.max(), "q={q}");
        }
        let h = Histogram::new();
        h.record(15_605);
        assert_eq!(h.quantile(0.5), 15_605);
    }

    #[test]
    fn histogram_stats_are_sane() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.mean(), h.quantile(0.99), h.max()), (0, 0, 0, 0));
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.mean(), 221);
        assert_eq!(h.max(), 1000);
        // p50 of {1,2,3,100,1000} lands in the bucket holding 3 → bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 lands in the bucket holding 1000 (960..=1023), whose bound
        // is clamped to the maximum sample.
        assert_eq!(h.quantile(0.99), 1000);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let m = ServerMetrics::new();
        m.count.requests.fetch_add(2, Ordering::Relaxed);
        m.count.latency_us.record(17);
        let json = m.to_json(&[format!("\"epoch\":{}", 4)]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"count\":{\"requests\":2"));
        assert!(json.contains("\"epoch\":4"));
        // Balanced braces (a cheap structural check without a parser).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn endpoint_lookup_covers_tracked_opcodes() {
        use crate::proto::op;
        let m = ServerMetrics::new();
        for opc in [
            op::PING,
            op::COUNT,
            op::INSERT,
            op::MINE,
            op::PROBE,
            op::STATS,
            op::REPLICATE,
            op::PROMOTE,
            op::COUNT_MANY,
            op::DELETE,
            op::MAINTAIN,
        ] {
            assert!(m.endpoint(opc).is_some());
        }
        assert!(m.endpoint(op::SHUTDOWN).is_none());
        assert!(m.endpoint(0xFF).is_none());
    }
}
