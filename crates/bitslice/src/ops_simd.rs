//! Tiered, cache-blocked multi-way AND + popcount kernels.
//!
//! `CountItemSet` is "AND k long bit columns, popcount the result".  The
//! naive shape — k-1 pairwise passes, or a word-at-a-time loop across all
//! operands — is latency-bound and reads the accumulator from memory k
//! times.  The kernels here instead process the operands **one cache block
//! at a time**: a [`BLOCK_WORDS`]-word (4 KiB) stack buffer is seeded from
//! the first operand, every remaining operand is ANDed into it while it is
//! L1-resident, and the block is popcounted before moving on.  Each operand
//! is still streamed from memory exactly once, but the intermediate never
//! leaves the top of the cache hierarchy.
//!
//! Four tiers share that structure and are selected once at runtime:
//!
//! 1. **AVX-512** (`x86_64` only) — 512-bit ANDs plus the dedicated
//!    `VPOPCNTDQ` per-lane popcount instruction, gated on
//!    `is_x86_feature_detected!("avx512f")` + `"avx512vpopcntdq"`.
//! 2. **AVX2** (`x86_64` only) — explicit `std::arch` intrinsics, 256-bit
//!    ANDs plus hardware `POPCNT`, gated on `is_x86_feature_detected!`.
//! 3. **Blocked scalar** — `chunks_exact(4)` loops the compiler can
//!    autovectorize on any target (and does, with SSE2 on baseline x86-64).
//! 4. **Portable reference** — the straight-line word loop; never selected
//!    by dispatch but kept public as the correctness oracle for tests and
//!    as the bench baseline.
//!
//! Dispatch can be overridden with the `BBS_KERNEL_TIER` environment
//! variable (`portable` | `scalar` | `avx2` | `avx512`), read once on the
//! first kernel call — the CI smoke matrix re-runs the kernel property
//! tests under each forced tier.  Forcing a tier the hardware lacks, or an
//! unrecognized value entirely, falls back to auto-detection rather than
//! faulting, with a one-line warning on stderr naming the rejected value.
//!
//! All entry points preserve the zero-extension semantics of [`crate::ops`]:
//! a missing trailing word behaves as `0u64`, so the fused count only walks
//! the prefix every operand covers.
//!
//! This module is the only place in the crate allowed to use `unsafe`; it
//! is confined to the feature-gated intrinsic paths below and to
//! [`le_words`], which reads aligned bytes in place as words.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Words per cache block: 512 × 8 B = 4 KiB, small enough to stay
/// L1-resident alongside one streaming operand block.
pub const BLOCK_WORDS: usize = 512;

/// Which kernel implementation dispatch selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Straight-line portable loop (reference/baseline; never auto-selected).
    Portable,
    /// Cache-blocked `chunks_exact` scalar code (autovectorizable).
    Scalar,
    /// Explicit AVX2 + hardware POPCNT intrinsics.
    Avx2,
    /// Explicit AVX-512 intrinsics with per-lane VPOPCNTDQ popcounts.
    Avx512,
}

impl Tier {
    /// Short human-readable name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

const TIER_UNKNOWN: u8 = 0;
const TIER_SCALAR: u8 = 1;
const TIER_AVX2: u8 = 2;
const TIER_AVX512: u8 = 3;
const TIER_PORTABLE: u8 = 4;

static TIER: AtomicU8 = AtomicU8::new(TIER_UNKNOWN);

/// The tier runtime dispatch resolved to on this machine (cached after the
/// first call).
#[inline]
pub fn active_tier() -> Tier {
    match TIER.load(Ordering::Relaxed) {
        TIER_AVX512 => Tier::Avx512,
        TIER_AVX2 => Tier::Avx2,
        TIER_SCALAR => Tier::Scalar,
        TIER_PORTABLE => Tier::Portable,
        _ => detect_tier(),
    }
}

#[cold]
fn detect_tier() -> Tier {
    let forced = std::env::var("BBS_KERNEL_TIER").ok();
    let (tier, warning) = resolve_tier(forced.as_deref(), avx2_available(), avx512_available());
    if let Some(msg) = warning {
        eprintln!("bbs: {msg}");
    }
    let code = match tier {
        Tier::Portable => TIER_PORTABLE,
        Tier::Scalar => TIER_SCALAR,
        Tier::Avx2 => TIER_AVX2,
        Tier::Avx512 => TIER_AVX512,
    };
    TIER.store(code, Ordering::Relaxed);
    tier
}

/// Resolves a `BBS_KERNEL_TIER` override against the hardware's actual
/// capabilities.  Pure so the pinned behavior is unit-testable: a
/// recognized-and-available tier wins; a recognized-but-unavailable or
/// unrecognized value falls back to runtime detection, with a one-line
/// warning explaining the fallback.
fn resolve_tier(forced: Option<&str>, avx2: bool, avx512: bool) -> (Tier, Option<String>) {
    let auto = if avx512 {
        Tier::Avx512
    } else if avx2 {
        Tier::Avx2
    } else {
        Tier::Scalar
    };
    match forced {
        None => (auto, None),
        Some("portable") => (Tier::Portable, None),
        Some("scalar") => (Tier::Scalar, None),
        Some("avx2") if avx2 => (Tier::Avx2, None),
        Some("avx512") if avx512 => (Tier::Avx512, None),
        Some(unavailable @ ("avx2" | "avx512")) => (
            auto,
            Some(format!(
                "BBS_KERNEL_TIER={unavailable} is not supported by this CPU; \
                 using runtime detection ({})",
                auto.name()
            )),
        ),
        Some(other) => (
            auto,
            Some(format!(
                "ignoring invalid BBS_KERNEL_TIER value {other:?} \
                 (expected portable|scalar|avx2|avx512); \
                 using runtime detection ({})",
                auto.name()
            )),
        ),
    }
}

/// True if the explicit AVX2 tier is available on this machine.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True if the explicit AVX-512 (VPOPCNTDQ) tier is available on this
/// machine.
#[inline]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Dispatched primitive ops (equal-length word runs).
// ---------------------------------------------------------------------------

/// `dst &= src` over `min(dst.len(), src.len())` words, dispatched.
///
/// Unlike [`crate::ops::and_assign`] this does **not** zero the tail of a
/// longer `dst`; it is the raw equal-run primitive the public op wraps.
#[inline]
pub fn and_words(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    #[cfg(target_arch = "x86_64")]
    match active_tier() {
        Tier::Avx512 => {
            // SAFETY: dispatch verified avx512f support at runtime.
            unsafe { and_words_avx512(&mut dst[..n], &src[..n]) };
            return;
        }
        Tier::Avx2 => {
            // SAFETY: dispatch verified avx2 support at runtime.
            unsafe { and_words_avx2(&mut dst[..n], &src[..n]) };
            return;
        }
        _ => {}
    }
    and_words_scalar(&mut dst[..n], &src[..n]);
}

/// `bytes` borrowed in place as little-endian `u64` words, so a kernel
/// can read a page buffer without decoding it.  `None` unless the target
/// is little-endian (a word's in-memory bytes are then its little-endian
/// encoding) and `bytes` is 8-byte aligned and a whole number of words;
/// callers decode with `u64::from_le_bytes` instead.
pub fn le_words(bytes: &[u8]) -> Option<&[u64]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: every bit pattern is a valid `u64`, and `align_to` only
    // yields the middle part at `u64` alignment and within `bytes`.
    let (head, words, tail) = unsafe { bytes.align_to::<u64>() };
    (head.is_empty() && tail.is_empty()).then_some(words)
}

/// Popcount of `words`, dispatched.
#[inline]
pub fn popcount(words: &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    match active_tier() {
        // SAFETY: dispatch verified avx512f+avx512vpopcntdq at runtime.
        Tier::Avx512 => return unsafe { popcount_avx512(words) },
        // SAFETY: dispatch verified avx2+popcnt support at runtime.
        Tier::Avx2 => return unsafe { popcount_avx2(words) },
        _ => {}
    }
    popcount_scalar(words)
}

/// `chunks_exact(4)` AND the compiler can autovectorize on any target.
pub fn and_words_scalar(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dw, sw) in (&mut d).zip(&mut s) {
        dw[0] &= sw[0];
        dw[1] &= sw[1];
        dw[2] &= sw[2];
        dw[3] &= sw[3];
    }
    for (dw, sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw &= *sw;
    }
}

/// `chunks_exact(4)` popcount with four independent accumulators.
pub fn popcount_scalar(words: &[u64]) -> usize {
    let mut c = words.chunks_exact(4);
    let (mut a0, mut a1, mut a2, mut a3) = (0usize, 0usize, 0usize, 0usize);
    for w in &mut c {
        a0 += w[0].count_ones() as usize;
        a1 += w[1].count_ones() as usize;
        a2 += w[2].count_ones() as usize;
        a3 += w[3].count_ones() as usize;
    }
    let tail: usize = c.remainder().iter().map(|w| w.count_ones() as usize).sum();
    a0 + a1 + a2 + a3 + tail
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_words_avx2(dst: &mut [u64], src: &[u64]) {
    use std::arch::x86_64::{_mm256_and_si256, _mm256_loadu_si256, _mm256_storeu_si256};
    let n = dst.len().min(src.len());
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds both slices; loadu/storeu tolerate any
        // alignment.
        unsafe {
            let d = dst.as_mut_ptr().add(i).cast();
            let s = src.as_ptr().add(i).cast();
            _mm256_storeu_si256(d, _mm256_and_si256(_mm256_loadu_si256(d), _mm256_loadu_si256(s)));
        }
        i += 4;
    }
    while i < n {
        dst[i] &= src[i];
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "popcnt")]
unsafe fn popcount_avx2(words: &[u64]) -> usize {
    // With the `popcnt` feature enabled, `u64::count_ones` lowers to the
    // hardware POPCNT instruction; four accumulators hide its latency.
    let mut c = words.chunks_exact(4);
    let (mut a0, mut a1, mut a2, mut a3) = (0usize, 0usize, 0usize, 0usize);
    for w in &mut c {
        a0 += w[0].count_ones() as usize;
        a1 += w[1].count_ones() as usize;
        a2 += w[2].count_ones() as usize;
        a3 += w[3].count_ones() as usize;
    }
    let tail: usize = c.remainder().iter().map(|w| w.count_ones() as usize).sum();
    a0 + a1 + a2 + a3 + tail
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn and_words_avx512(dst: &mut [u64], src: &[u64]) {
    use std::arch::x86_64::{_mm512_and_si512, _mm512_loadu_si512, _mm512_storeu_si512};
    let n = dst.len().min(src.len());
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds both slices; loadu/storeu tolerate any
        // alignment.
        unsafe {
            let d = dst.as_mut_ptr().add(i).cast();
            let s = src.as_ptr().add(i).cast();
            _mm512_storeu_si512(d, _mm512_and_si512(_mm512_loadu_si512(d), _mm512_loadu_si512(s)));
        }
        i += 8;
    }
    while i < n {
        dst[i] &= src[i];
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vpopcntdq")]
unsafe fn popcount_avx512(words: &[u64]) -> usize {
    // VPOPCNTDQ counts all eight 64-bit lanes at once; the per-lane sums
    // accumulate vertically and reduce horizontally once at the end.
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_loadu_si512, _mm512_popcnt_epi64, _mm512_reduce_add_epi64,
        _mm512_setzero_si512,
    };
    let n = words.len();
    let mut acc = _mm512_setzero_si512();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the load; loadu tolerates any alignment.
        unsafe {
            let v = _mm512_loadu_si512(words.as_ptr().add(i).cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        i += 8;
    }
    let mut total = _mm512_reduce_add_epi64(acc) as usize;
    while i < n {
        total += words[i].count_ones() as usize;
        i += 1;
    }
    total
}

// ---------------------------------------------------------------------------
// Fused blocked multi-way AND + popcount.
// ---------------------------------------------------------------------------

/// Fused blocked multi-way AND + popcount with optional early exit.
///
/// Counts `popcount(srcs[0] & … & srcs[k-1])` over the first `words` words,
/// zero-extending short operands.  With `tau = Some(τ)`, counting stops as
/// soon as the running upper bound `acc + 64·words_left` drops below `τ`
/// and returns that bound.  The result is therefore:
///
/// * **exact** when it is `≥ τ` (or when `tau` is `None`), and
/// * an **upper bound** on the true count when it is `< τ`.
///
/// Since BBS estimates never undercount (Lemmas 1–4) and the filter only
/// ever compares the estimate against `τ`, a `< τ` upper bound is as good
/// as the exact value: the itemset is pruned either way, and no frequent
/// itemset can be lost.
pub fn and_all_count_bounded(srcs: &[&[u64]], words: usize, tau: Option<usize>) -> usize {
    and_all_count_tier(active_tier(), srcs, words, tau)
}

/// Like [`and_all_count_bounded`] but with the tier forced by the caller —
/// for benches and tests that compare implementations.  Forcing
/// [`Tier::Avx2`] or [`Tier::Avx512`] on a machine without the feature set
/// falls back to scalar.
pub fn and_all_count_tier(tier: Tier, srcs: &[&[u64]], words: usize, tau: Option<usize>) -> usize {
    if srcs.is_empty() {
        return words * 64;
    }
    // Beyond the shortest operand the AND is identically zero, so only the
    // common prefix can contribute to the count.
    let shortest = srcs.iter().map(|s| s.len()).min().unwrap_or(0);
    let n = words.min(shortest);
    if tier == Tier::Portable {
        return and_all_count_portable_prefix(srcs, n, tau);
    }
    #[cfg(target_arch = "x86_64")]
    let use_avx512 = tier == Tier::Avx512 && avx512_available();
    #[cfg(target_arch = "x86_64")]
    let use_avx2 = tier == Tier::Avx2 && avx2_available();
    #[cfg(not(target_arch = "x86_64"))]
    let (use_avx512, use_avx2) = (false, false);

    let mut buf = [0u64; BLOCK_WORDS];
    let mut acc = 0usize;
    let mut i = 0;
    while i < n {
        let b = (n - i).min(BLOCK_WORDS);
        let blk = &mut buf[..b];
        blk.copy_from_slice(&srcs[0][i..i + b]);
        #[cfg(target_arch = "x86_64")]
        if use_avx512 || use_avx2 {
            acc += if use_avx512 {
                // SAFETY: `use_avx512` implies runtime avx512f+vpopcntdq
                // detection.
                unsafe { block_pass_avx512(blk, &srcs[1..], i) }
            } else {
                // SAFETY: `use_avx2` implies runtime avx2+popcnt detection.
                unsafe { block_pass_avx2(blk, &srcs[1..], i) }
            };
            i += b;
            if let Some(tau) = tau {
                let bound = acc + (n - i) * 64;
                if bound < tau {
                    return bound;
                }
            }
            continue;
        }
        let _ = (use_avx512, use_avx2);
        for s in &srcs[1..] {
            and_words_scalar(blk, &s[i..i + b]);
        }
        acc += popcount_scalar(blk);
        i += b;
        if let Some(tau) = tau {
            let bound = acc + (n - i) * 64;
            if bound < tau {
                return bound;
            }
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "popcnt")]
unsafe fn block_pass_avx2(blk: &mut [u64], rest: &[&[u64]], offset: usize) -> usize {
    for s in rest {
        // SAFETY: callers sliced every operand to cover offset + blk.len().
        unsafe { and_words_avx2(blk, &s[offset..offset + blk.len()]) };
    }
    // SAFETY: same feature set as this function.
    unsafe { popcount_avx2(blk) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vpopcntdq")]
unsafe fn block_pass_avx512(blk: &mut [u64], rest: &[&[u64]], offset: usize) -> usize {
    for s in rest {
        // SAFETY: callers sliced every operand to cover offset + blk.len().
        unsafe { and_words_avx512(blk, &s[offset..offset + blk.len()]) };
    }
    // SAFETY: same feature set as this function.
    unsafe { popcount_avx512(blk) }
}

/// Straight-line portable multi-way AND + popcount: the pre-blocking
/// word-at-a-time kernel, kept as the correctness oracle and the bench
/// baseline ("scalar seed kernel").
pub fn and_all_count_portable(srcs: &[&[u64]], words: usize) -> usize {
    if srcs.is_empty() {
        return words * 64;
    }
    let shortest = srcs.iter().map(|s| s.len()).min().unwrap_or(0);
    and_all_count_portable_prefix(srcs, words.min(shortest), None)
}

fn and_all_count_portable_prefix(srcs: &[&[u64]], n: usize, tau: Option<usize>) -> usize {
    let mut acc = 0usize;
    for i in 0..n {
        let mut w = srcs[0][i];
        for s in &srcs[1..] {
            w &= s[i];
            if w == 0 {
                break;
            }
        }
        acc += w.count_ones() as usize;
        if let Some(tau) = tau {
            // Early exit at word granularity for the reference tier.
            let bound = acc + (n - i - 1) * 64;
            if bound < tau {
                return bound;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_words_reads_aligned_bytes_in_place() {
        #[repr(align(8))]
        struct Aligned([u8; 40]);
        let words: Vec<u64> = (0..5u64).map(|i| i * 0x0101_0101_0101_0101 + 7).collect();
        let mut buf = Aligned([0; 40]);
        for (dst, w) in buf.0.chunks_exact_mut(8).zip(&words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        if cfg!(target_endian = "little") {
            assert_eq!(le_words(&buf.0), Some(&words[..]));
        } else {
            assert_eq!(le_words(&buf.0), None);
        }
        assert_eq!(le_words(&buf.0[1..33]), None, "misaligned");
        assert_eq!(le_words(&buf.0[..12]), None, "not a whole number of words");
    }

    fn fill(seed: u64, words: usize, density_shift: u32) -> Vec<u64> {
        // xorshift64* stream, ANDed down to the requested density.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..words)
            .map(|_| {
                let mut w = u64::MAX;
                for _ in 0..density_shift {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    w &= x;
                }
                w
            })
            .collect()
    }

    #[test]
    fn tiers_agree_on_random_operands() {
        let a = fill(1, 1600, 1);
        let b = fill(2, 1600, 2);
        let c = fill(3, 1500, 1); // shorter: zero-extension path
        let d = fill(4, 1601, 3);
        let srcs: Vec<&[u64]> = vec![&a, &b, &c, &d];
        for words in [0, 1, 3, 4, 511, 512, 513, 1024, 1499, 1500, 1600, 2000] {
            let want = and_all_count_portable(&srcs, words);
            assert_eq!(and_all_count_tier(Tier::Scalar, &srcs, words, None), want);
            assert_eq!(and_all_count_tier(Tier::Avx2, &srcs, words, None), want);
            assert_eq!(and_all_count_tier(Tier::Avx512, &srcs, words, None), want);
            assert_eq!(and_all_count_bounded(&srcs, words, None), want);
        }
    }

    #[test]
    fn single_and_empty_operands() {
        let a = fill(9, 100, 1);
        let srcs: Vec<&[u64]> = vec![&a];
        let want: usize = a.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(and_all_count_bounded(&srcs, 100, None), want);
        assert_eq!(and_all_count_bounded(&[], 7, None), 7 * 64);
        let empty: &[u64] = &[];
        assert_eq!(and_all_count_bounded(&[&a, empty], 100, None), 0);
    }

    #[test]
    fn early_exit_is_tau_consistent() {
        let a = fill(5, 2048, 3);
        let b = fill(6, 2048, 3);
        let srcs: Vec<&[u64]> = vec![&a, &b];
        let exact = and_all_count_bounded(&srcs, 2048, None);
        for tau in [0, 1, exact / 2, exact, exact + 1, exact * 2 + 10, usize::MAX] {
            for tier in [Tier::Portable, Tier::Scalar, Tier::Avx2, Tier::Avx512] {
                let got = and_all_count_tier(tier, &srcs, 2048, Some(tau));
                if got >= tau {
                    assert_eq!(got, exact, "tier {tier:?} tau {tau}");
                } else {
                    assert!(got >= exact, "tier {tier:?} tau {tau}: {got} undercounts {exact}");
                }
            }
        }
    }

    #[test]
    fn and_words_matches_scalar_on_all_lengths() {
        for len in 0..70 {
            let a = fill(11, len, 1);
            let b = fill(12, len, 1);
            let mut d1 = a.clone();
            and_words(&mut d1, &b);
            let mut d2 = a.clone();
            and_words_scalar(&mut d2, &b);
            assert_eq!(d1, d2);
            let want: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            assert_eq!(d1, want);
            assert_eq!(popcount(&d1), popcount_scalar(&d1));
        }
    }

    #[test]
    fn dispatch_resolves_to_a_real_tier() {
        let t = active_tier();
        // Portable is reachable only through the BBS_KERNEL_TIER override
        // (the CI tier matrix runs the suite under each forced value).
        assert!(matches!(
            t,
            Tier::Portable | Tier::Scalar | Tier::Avx2 | Tier::Avx512
        ));
        assert!(!t.name().is_empty());
        if std::env::var("BBS_KERNEL_TIER").is_err() {
            // Unforced dispatch never resolves to the reference tier.
            assert!(t != Tier::Portable);
        }
    }

    #[test]
    fn resolve_tier_honors_valid_overrides_without_warning() {
        assert_eq!(resolve_tier(Some("portable"), true, true), (Tier::Portable, None));
        assert_eq!(resolve_tier(Some("scalar"), false, false), (Tier::Scalar, None));
        assert_eq!(resolve_tier(Some("avx2"), true, false), (Tier::Avx2, None));
        assert_eq!(resolve_tier(Some("avx512"), true, true), (Tier::Avx512, None));
    }

    #[test]
    fn resolve_tier_auto_detects_when_unforced() {
        assert_eq!(resolve_tier(None, false, false), (Tier::Scalar, None));
        assert_eq!(resolve_tier(None, true, false), (Tier::Avx2, None));
        assert_eq!(resolve_tier(None, true, true), (Tier::Avx512, None));
    }

    #[test]
    fn resolve_tier_falls_back_on_invalid_value_with_warning() {
        let (tier, warning) = resolve_tier(Some("sse9"), true, false);
        assert_eq!(tier, Tier::Avx2, "invalid value uses runtime detection");
        let msg = warning.expect("a warning names the rejected value");
        assert!(msg.contains("sse9"), "warning names the value: {msg}");
        assert!(msg.contains("avx2"), "warning names the fallback: {msg}");
        // Empty string is invalid too, not a silent auto.
        let (tier, warning) = resolve_tier(Some(""), false, false);
        assert_eq!(tier, Tier::Scalar);
        assert!(warning.is_some());
    }

    #[test]
    fn resolve_tier_falls_back_when_forced_tier_is_unavailable() {
        let (tier, warning) = resolve_tier(Some("avx512"), true, false);
        assert_eq!(tier, Tier::Avx2);
        let msg = warning.expect("unavailable tier warns");
        assert!(msg.contains("avx512"), "{msg}");
        let (tier, warning) = resolve_tier(Some("avx2"), false, false);
        assert_eq!(tier, Tier::Scalar);
        assert!(warning.is_some());
    }
}
