//! Property-based tests for the compressor and NCD.

#![cfg(test)]

use crate::lz::compressed_len_pair;
use crate::{compress, compressed_len, decompress, ncd, NcdBaseline, MAX_MATCH};
use proptest::collection::vec;
use proptest::prelude::*;

/// `(C(x), C(x‖y))` from two separate compressions: the reference the
/// one-pass pair must equal.
fn two_pass(x: &[u8], y: &[u8]) -> (usize, usize) {
    (compress(x).len(), compress(&[x, y].concat()).len())
}

/// `n` bytes cycling through `stride` values from `byte`, starting
/// `phase` bytes into the cycle.
fn cycle(byte: u8, n: usize, stride: usize, phase: usize) -> Vec<u8> {
    (phase..phase + n)
        .map(|i| byte.wrapping_add((i % stride) as u8))
        .collect()
}

/// Check the pair against [`two_pass`] for `x` and `y`, for a prefix of
/// `x` (a second input size on the same thread's scratch, in both
/// orders), and for each against an empty `y`.
fn pair_matches_two_passes(x: &[u8], y: &[u8], cut: usize) {
    let short = &x[..cut.min(x.len())];
    for (a, b) in [(x, y), (short, y), (x, y), (x, &[][..]), (short, &[][..])] {
        assert_eq!(
            compressed_len_pair(a, b),
            two_pass(a, b),
            "|x| {}, |y| {}",
            a.len(),
            b.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lossless round trip on arbitrary bytes.
    #[test]
    fn prop_round_trip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// Round trip on highly repetitive inputs (worst case for match logic).
    #[test]
    fn prop_round_trip_repetitive(byte in any::<u8>(), n in 0usize..8192, stride in 1usize..17) {
        let data: Vec<u8> = (0..n).map(|i| byte.wrapping_add((i % stride) as u8)).collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// The counting fast path is exact: the bit-tally of
    /// [`compressed_len`] must equal the length of the byte buffer
    /// [`compress`] actually materializes, on arbitrary byte strings.
    #[test]
    fn prop_compressed_len_matches_compress(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        prop_assert_eq!(compressed_len(&data), compress(&data).len());
    }

    /// Same pin on repetitive inputs (match-heavy token streams exercise
    /// the length/distance extra-bit accounting).
    #[test]
    fn prop_compressed_len_matches_on_repetitive(byte in any::<u8>(), n in 0usize..8192, stride in 1usize..17) {
        let data: Vec<u8> = (0..n).map(|i| byte.wrapping_add((i % stride) as u8)).collect();
        prop_assert_eq!(compressed_len(&data), compress(&data).len());
    }

    /// NCD stays within its theoretical-ish bounds and is ~0 on identity.
    #[test]
    fn prop_ncd_bounds(a in proptest::collection::vec(any::<u8>(), 1..2048),
                       b in proptest::collection::vec(any::<u8>(), 1..2048)) {
        let d = ncd(&a, &b);
        prop_assert!((0.0..=1.25).contains(&d), "ncd out of range: {}", d);
        prop_assert!(ncd(&a, &a) <= 0.3);
    }

    /// Truncating a stream never panics — it errors.
    #[test]
    fn prop_truncation_errors_not_panics(data in proptest::collection::vec(any::<u8>(), 16..512),
                                         cut in 1usize..12) {
        let mut c = compress(&data);
        let new_len = c.len().saturating_sub(cut);
        c.truncate(new_len);
        let _ = decompress(&c); // must not panic
    }

    /// Flipping a byte never panics.
    #[test]
    fn prop_corruption_errors_not_panics(data in proptest::collection::vec(any::<u8>(), 16..512),
                                         pos in any::<usize>(), flip in 1u8..255) {
        let mut c = compress(&data);
        let idx = pos % c.len();
        c[idx] ^= flip;
        if let Ok(out) = decompress(&c) {
            // If it still decodes (flip in padding bits), length must match.
            prop_assert_eq!(out.len(), data.len());
        }
    }

    /// The one-pass `(C(x), C(x‖y))` equals two separate compressions on
    /// random bytes, with `|x|` on both sides of `MAX_MATCH`, where the
    /// shared prefix begins.
    #[test]
    fn prop_pair_matches_two_passes_on_random(x in vec(any::<u8>(), 0..=MAX_MATCH + 8),
                                              y in vec(any::<u8>(), 0..600),
                                              cut in 0..=MAX_MATCH + 8) {
        pair_matches_two_passes(&x, &y, cut);
    }

    /// Same pin on repetitive bytes, where `y` continues `x`'s cycle so
    /// matches run across the boundary; then with the two swapped, so
    /// `x` runs to 1,200 bytes.
    #[test]
    fn prop_pair_matches_two_passes_on_repetitive(byte in any::<u8>(),
                                                  n in 0..=MAX_MATCH + 8,
                                                  m in 0usize..1200,
                                                  stride in 1usize..17,
                                                  cut in 0..=MAX_MATCH + 8) {
        let x = cycle(byte, n, stride, 0);
        let y = cycle(byte, m, stride, n);
        pair_matches_two_passes(&x, &y, cut);
        pair_matches_two_passes(&y, &x, cut);
    }

    /// Same pin with a long shared prefix: a seeded random block
    /// repeated inside `x` (matches of every length) and again in `y`.
    #[test]
    fn prop_pair_matches_two_passes_with_long_prefixes(block in vec(any::<u8>(), 1..300),
                                                       reps in 1usize..12,
                                                       tail in vec(any::<u8>(), 0..40),
                                                       cut in 0usize..4000) {
        let mut x = block.repeat(reps);
        x.extend_from_slice(&tail);
        let mut y = tail.clone();
        y.extend_from_slice(&block);
        pair_matches_two_passes(&x, &y, cut);
    }

    /// `ncd` and `NcdBaseline::score` equal Equation 1 over three
    /// separate compressions, bit for bit.
    #[test]
    fn prop_ncd_matches_the_two_pass_formula(x in vec(any::<u8>(), 0..=MAX_MATCH + 8),
                                             y in vec(any::<u8>(), 0..600),
                                             overlap in 0usize..300) {
        // Half the `y`s start with a piece of `x`.
        let mut y = y;
        if overlap % 2 == 0 {
            y.splice(0..0, x[..overlap.min(x.len())].iter().copied());
        }
        let (cx, cxy) = two_pass(&x, &y);
        let cy = compress(&y).len();
        let want = if x.is_empty() && y.is_empty() {
            0.0
        } else {
            cxy.saturating_sub(cx.min(cy)) as f64 / cx.max(cy) as f64
        };
        prop_assert_eq!(ncd(&x, &y).to_bits(), want.to_bits());
        prop_assert_eq!(NcdBaseline::new(y).score(&x).to_bits(), want.to_bits());
    }
}
