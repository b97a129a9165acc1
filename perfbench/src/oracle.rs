//! Offline truth for checking every answer: a `bbs_core::Bbs` built from
//! the same rows (the expected estimate, bit for bit), per-item row sets
//! (the exact support, for the Lemma 1–4 lower bound), and FP-growth (the
//! expected mine).

use bbs_bitslice::BitVec;
use bbs_core::Bbs;
use bbs_fptree::FpGrowthMiner;
use bbs_hash::Md5BloomHasher;
use bbs_tdb::{
    FrequentPatternMiner, IoStats, ItemId, Itemset, PatternSet, SupportThreshold, Transaction,
    TransactionDb,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A query itemset as the wire carries it: sorted item values.
pub type Query = Vec<u32>;

pub fn itemset(q: &[u32]) -> Itemset {
    Itemset::from_values(q)
}

pub fn wire_rows(txns: &[Transaction]) -> Vec<(u64, Vec<u32>)> {
    txns.iter()
        .map(|t| (t.tid.0, t.items.items().iter().map(|i| i.0).collect()))
        .collect()
}

/// Offline BBS matching the server's width and hash family.
pub fn offline_bbs(rows: &[Transaction]) -> Bbs {
    let mut bbs = Bbs::new(crate::deploy::WIDTH, Arc::new(Md5BloomHasher::new(4)));
    let mut io = IoStats::new();
    for t in rows {
        bbs.insert(t, &mut io);
    }
    bbs
}

/// Per-query row sets over a fixed row sequence (row `r` = the `r`-th
/// transaction handed to [`Truth::new`]).
pub struct Truth {
    /// Rows whose signature covers the query: the BBS estimate's rows.
    est: Vec<BitVec>,
    /// Rows that hold each query item.
    item_rows: HashMap<u32, BitVec>,
}

impl Truth {
    pub fn new(rows: &[Transaction], queries: &[Query]) -> Truth {
        let bbs = offline_bbs(rows);
        let mut io = IoStats::new();
        let est = queries
            .iter()
            .map(|q| {
                let mut out = BitVec::zeros(rows.len());
                bbs.est_result(&itemset(q), &mut out, &mut io);
                out
            })
            .collect();
        let mut item_rows: HashMap<u32, BitVec> = HashMap::new();
        for q in queries {
            for &i in q {
                item_rows
                    .entry(i)
                    .or_insert_with(|| BitVec::zeros(rows.len()));
            }
        }
        for (r, t) in rows.iter().enumerate() {
            for i in t.items.items() {
                if let Some(bits) = item_rows.get_mut(&i.0) {
                    bits.set(r);
                }
            }
        }
        Truth { est, item_rows }
    }

    /// Expected estimate of query `q` over the rows set in `live`.
    pub fn estimate(&self, q: usize, live: &BitVec) -> u64 {
        self.est[q].and_count(live) as u64
    }

    /// Exact support of `query` over the rows set in `live`.
    pub fn exact(&self, query: &[u32], live: &BitVec) -> u64 {
        let mut acc = live.clone();
        for i in query {
            acc.and_assign(&self.item_rows[i]);
        }
        acc.count_ones() as u64
    }
}

/// FP-growth over `rows` at the fractional threshold `tau`.
pub fn fpgrowth(rows: &[Transaction], tau: f64) -> PatternSet {
    let db = TransactionDb::from_transactions(rows.iter().cloned());
    FpGrowthMiner::new()
        .mine(&db, SupportThreshold::Fraction(tau))
        .patterns
}

/// Checks a served mine against FP-growth on the same rows: the same
/// itemsets; exact supports where the reply says exact; certified
/// approximate supports at least both τ and the true support.
pub fn check_mine(
    patterns: &[(Vec<u32>, u64, bool)],
    truth: &PatternSet,
    tau_abs: u64,
) -> Result<(), String> {
    if patterns.len() != truth.len() {
        return Err(format!(
            "mine returned {} patterns, FP-growth finds {}",
            patterns.len(),
            truth.len()
        ));
    }
    for (items, support, approx) in patterns {
        let set = Itemset::from_items(items.iter().map(|&i| ItemId(i)).collect());
        let Some(exact) = truth.support(&set) else {
            return Err(format!("mine returned {items:?}, which is not frequent"));
        };
        let ok = if *approx {
            *support >= exact && *support >= tau_abs
        } else {
            *support == exact
        };
        if !ok {
            return Err(format!(
                "mine support of {items:?}: {support} (approx {approx}), exact {exact}"
            ));
        }
    }
    Ok(())
}
