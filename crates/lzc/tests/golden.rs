//! Absolute output of the compressor and of NCD, pinned to committed values.
//!
//! Every other check in this crate is a differential (`compressed_len(x) ==
//! compress(x).len()`, one-pass pair == two-pass formula), so a change that
//! moves both sides at once would pass them all. This table fixes the
//! numbers themselves: `compressed_len` and the `NcdBaseline::score` bits of
//! seeded random and repetitive inputs at the sizes around the tokenizer's
//! edges (`MIN_MATCH`, `MAX_MATCH`) and at 64 KiB, against an empty and a
//! non-empty baseline. The values were taken from the two-pass scorer.

use lzc::{compress, compressed_len, NcdBaseline};

/// Seeded xorshift bytes: no long repeats.
fn random(seed: u32, n: usize) -> Vec<u8> {
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

/// A seeded 37-byte motif repeated, with one byte flipped every 101
/// bytes: matches of every length up to and past `MAX_MATCH`.
fn repetitive(seed: u32, n: usize) -> Vec<u8> {
    let motif = random(seed, 37);
    (0..n)
        .map(|i| motif[i % 37] ^ if i % 101 == 0 { 0x5a } else { 0 })
        .collect()
}

/// A baseline that shares content with both input kinds, so matches
/// cross the `x‖baseline` boundary.
fn baseline() -> Vec<u8> {
    let mut b = random(1, 700);
    b.extend(repetitive(2, 900));
    b.extend(random(77, 1400));
    b
}

const SIZES: [usize; 7] = [0, 3, 4, 257, 258, 259, 64 << 10];

/// `C(baseline())`.
const BASELINE_LEN: usize = 2352;

/// `(|x|, C(x), score against an empty baseline, score against
/// baseline())` for `random(1, |x|)`, scores as `f64::to_bits`.
const RANDOM: [(usize, usize, u64, u64); 7] = [
    (0, 180, 0x0000000000000000, 0x3fed8d0fac687d63),
    (3, 181, 0x3f76a13cd1537290, 0x3fed9406f74ae265),
    (4, 181, 0x3f76a13cd1537290, 0x3fed908b51d9afe4),
    (257, 411, 0x3fe1fc43452380ef, 0x3fea72f05397829d),
    (258, 411, 0x3fe1fc43452380ef, 0x3fea72f05397829d),
    (259, 413, 0x3fe20da305942531, 0x3fea6f74ae26501c),
    (65536, 65741, 0x3fefe991f61dea0c, 0x3fef967484b1bdab),
];

/// The same columns for `repetitive(1, |x|)`.
const REPETITIVE: [(usize, usize, u64, u64); 7] = [
    (0, 180, 0x0000000000000000, 0x3fed8d0fac687d63),
    (3, 181, 0x3f76a13cd1537290, 0x3fed9406f74ae265),
    (4, 181, 0x3f76a13cd1537290, 0x3fed97829cbc14e6),
    (257, 215, 0x3fc4d653594d6536, 0x3fed4ae26501bdd3),
    (258, 215, 0x3fc4d653594d6536, 0x3fed4ae26501bdd3),
    (259, 215, 0x3fc4d653594d6536, 0x3fed4766bf908b52),
    (65536, 1115, 0x3fead586505bd6ac, 0x3fefb6db6db6db6e),
];

#[test]
fn compressed_lengths_and_scores_match_the_committed_table() {
    let empty = NcdBaseline::new(Vec::new());
    let full = NcdBaseline::new(baseline());
    let table = |gen: fn(u32, usize) -> Vec<u8>| -> Vec<(usize, usize, u64, u64)> {
        SIZES
            .iter()
            .map(|&n| {
                let x = gen(1, n);
                let c = compressed_len(&x);
                assert_eq!(c, compress(&x).len(), "|x| = {n}");
                (n, c, empty.score(&x).to_bits(), full.score(&x).to_bits())
            })
            .collect()
    };
    let got = (full.compressed_len(), table(random), table(repetitive));
    assert_eq!(
        got,
        (BASELINE_LEN, RANDOM.to_vec(), REPETITIVE.to_vec()),
        "computed (C(baseline), random rows, repetitive rows): {got:#x?}"
    );
}
