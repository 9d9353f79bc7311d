//! Normalized Compression Distance (paper §4.2, Equation 1).
//!
//! `NCD(x, y) = (C(x·y) − min(C(x), C(y))) / max(C(x), C(y))`
//!
//! where `C` is [`crate::compressed_len`] and `x·y` is concatenation. The
//! score is ~0.0 for identical inputs and approaches 1.0 (occasionally
//! slightly above, as with any real compressor) for unrelated inputs.
//! `C(x)` and `C(x·y)` come from one pass over `x·y`: the tokens of `x`
//! that start at least `MAX_MATCH` bytes before its end are the same in
//! both inputs, so only the rest of `x` is tokenized twice.

use crate::lz::{compressed_len, compressed_len_pair};

/// Compute the NCD between two byte strings.
///
/// # Example
///
/// ```
/// let a = vec![7u8; 4096];
/// let b: Vec<u8> = (0..4096u32).map(|i| (i * 37 % 251) as u8).collect();
/// assert!(lzc::ncd(&a, &a) < 0.15);
/// assert!(lzc::ncd(&a, &b) > 0.5);
/// ```
pub fn ncd(x: &[u8], y: &[u8]) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 0.0;
    }
    let (cx, cxy) = compressed_len_pair(x, y);
    distance(cx, compressed_len(y), cxy)
}

/// Equation 1 from the three compressed lengths.
fn distance(cx: usize, cy: usize, cxy: usize) -> f64 {
    let min = cx.min(cy);
    let max = cx.max(cy);
    if max == 0 {
        return 0.0;
    }
    (cxy.saturating_sub(min)) as f64 / max as f64
}

/// NCD against a fixed baseline, caching `C(baseline)`.
///
/// BinTuner computes `NCD(candidate, O0-binary)` once per GA iteration with
/// the same baseline throughout a run, so `C(baseline)` is computed once
/// here, and each [`NcdBaseline::score`] tokenizes the candidate and the
/// baseline in one pass that yields both `C(candidate)` and
/// `C(candidate·baseline)`.
#[derive(Debug, Clone)]
pub struct NcdBaseline {
    data: Vec<u8>,
    clen: usize,
}

impl NcdBaseline {
    /// Pre-compress the baseline.
    pub fn new(baseline: Vec<u8>) -> NcdBaseline {
        let clen = compressed_len(&baseline);
        NcdBaseline {
            data: baseline,
            clen,
        }
    }

    /// The baseline bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Cached `C(baseline)`.
    pub fn compressed_len(&self) -> usize {
        self.clen
    }

    /// `NCD(other, baseline)`, bit-identical to [`ncd`]`(other, baseline)`.
    pub fn score(&self, other: &[u8]) -> f64 {
        if other.is_empty() && self.data.is_empty() {
            return 0.0;
        }
        let (c_other, c_joined) = compressed_len_pair(other, &self.data);
        distance(c_other, self.clen, c_joined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(seed: u32, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect()
    }

    #[test]
    fn identical_inputs_score_near_zero() {
        let a = patterned(1, 50_000);
        assert!(ncd(&a, &a) < 0.05, "{}", ncd(&a, &a));
    }

    #[test]
    fn unrelated_inputs_score_near_one() {
        let a = patterned(1, 50_000);
        let b = patterned(99, 50_000);
        let d = ncd(&a, &b);
        assert!(d > 0.9, "{d}");
        assert!(d < 1.15, "{d}");
    }

    #[test]
    fn partial_overlap_scores_in_between() {
        let a = patterned(1, 40_000);
        let mut b = a.clone();
        let extra = patterned(2, 40_000);
        b.extend_from_slice(&extra);
        let d = ncd(&a, &b);
        assert!(d > 0.2 && d < 0.8, "{d}");
    }

    #[test]
    fn symmetry_within_tolerance() {
        let a = patterned(3, 30_000);
        let b = patterned(4, 20_000);
        let d1 = ncd(&a, &b);
        let d2 = ncd(&b, &a);
        assert!((d1 - d2).abs() < 0.05, "{d1} vs {d2}");
    }

    #[test]
    fn empty_edge_cases() {
        assert_eq!(ncd(b"", b""), 0.0);
        let a = patterned(5, 1000);
        // Comparing data against nothing is maximally different (the fixed
        // table header softens the score a little on tiny inputs).
        assert!(ncd(&a, b"") > 0.75);
    }

    #[test]
    fn baseline_matches_direct_computation() {
        let a = patterned(6, 20_000);
        let b = patterned(7, 20_000);
        let base = NcdBaseline::new(b.clone());
        assert_eq!(base.score(&a).to_bits(), ncd(&a, &b).to_bits());
    }
}
