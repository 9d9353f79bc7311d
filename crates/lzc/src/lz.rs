//! LZ77 tokenizer and the `lzc` stream format.
//!
//! The format is deflate-like (literal/length alphabet + distance alphabet,
//! both canonical-Huffman coded) but with an effectively unbounded match
//! window (~32 MiB), because NCD concatenates two whole code sections and
//! must be able to find cross-section matches — the property LZMA provides
//! in the paper.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{code_lengths, Decoder, Encoder};

/// Minimum match length.
pub const MIN_MATCH: usize = 4;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;

const EOB: usize = 256;
const HASH_BITS: u32 = 16;
const MAX_CHAIN: usize = 64;

/// Errors returned by [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// Stream does not start with the `LZC1` magic.
    BadMagic,
    /// Stream ended early or contained an invalid code.
    Corrupt(&'static str),
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::BadMagic => f.write_str("not an lzc stream"),
            LzError::Corrupt(what) => write!(f, "corrupt lzc stream: {what}"),
        }
    }
}

impl std::error::Error for LzError {}

/// Length codes: `(base, extra_bits)`, 8 single lengths from 3, then
/// four codes for each of 1..=5 extra bits, up to [`MAX_MATCH`].
const LEN_CODES: [(usize, u32); 28] = {
    let mut v = [(0usize, 0u32); 28];
    let mut base = 3usize;
    let mut i = 0;
    while i < 28 {
        let extra = if i < 8 { 0 } else { (i as u32 - 8) / 4 + 1 };
        v[i] = (base, extra);
        base += 1 << extra;
        i += 1;
    }
    assert!(base == MAX_MATCH + 1);
    v
};

/// Distance codes: `(base, extra_bits)`, 4 single distances from 1, then
/// two codes for each of 1..=23 extra bits (distances up to 2^25).
const DIST_CODES: [(usize, u32); 50] = {
    let mut v = [(0usize, 0u32); 50];
    let mut base = 1usize;
    let mut i = 0;
    while i < 50 {
        let extra = if i < 4 { 0 } else { (i as u32 - 4) / 2 + 1 };
        v[i] = (base, extra);
        base += 1 << extra;
        i += 1;
    }
    v
};

/// Symbols of the literal/length alphabet: 256 literals, EOB, the
/// length codes.
const LIT_SYMBOLS: usize = 257 + LEN_CODES.len();

/// The length code of every match length (a lookup, not a search).
const LEN_CODE_OF: [u8; MAX_MATCH + 1] = {
    let mut v = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    let mut len = LEN_CODES[0].0;
    while len <= MAX_MATCH {
        if code + 1 < LEN_CODES.len() && LEN_CODES[code + 1].0 == len {
            code += 1;
        }
        v[len] = code as u8;
        len += 1;
    }
    v
};

/// The distance code of `dist ≥ 1`: the largest code whose base is at
/// most `dist`. Past the first four, codes come in pairs per extra-bit
/// count, so with `v = dist - 1` the code is `2·⌊log2 v⌋` plus the bit
/// of `v` just below its top one. A distance past the last code's range
/// gets the last code, as a search of [`DIST_CODES`] would give it.
#[inline]
fn dist_code(dist: usize) -> usize {
    if dist <= 4 {
        return dist - 1;
    }
    let v = dist - 1;
    let log = (usize::BITS - 1 - v.leading_zeros()) as usize;
    (2 * log + ((v >> (log - 1)) & 1)).min(DIST_CODES.len() - 1)
}

#[derive(Debug, Clone, Copy)]
enum Token {
    Literal(u8),
    Match { len: usize, dist: usize },
}

/// Where the tokenizer sends its tokens: [`compress`]'s token list, or a
/// [`Tally`] when only the compressed length is wanted.
trait Sink {
    fn literal(&mut self, byte: u8);
    fn matched(&mut self, len: usize, dist: usize);
}

impl Sink for Vec<Token> {
    fn literal(&mut self, byte: u8) {
        self.push(Token::Literal(byte));
    }

    fn matched(&mut self, len: usize, dist: usize) {
        self.push(Token::Match { len, dist });
    }
}

/// Symbol frequencies of a token stream (EOB terminator included) plus
/// the raw extra bits its matches emit. Identical frequencies mean
/// identical canonical code lengths, so this is all [`compress`] needs to
/// choose its codes and all [`compressed_len`] needs to count its bits
/// exactly. Tallies of consecutive token runs add up, which is what lets
/// [`compressed_len_pair`] share one run between two streams.
#[derive(Clone)]
struct Tally {
    lit: [u64; LIT_SYMBOLS],
    dist: [u64; DIST_CODES.len()],
    extra_bits: u64,
}

impl Tally {
    fn new() -> Tally {
        let mut lit = [0; LIT_SYMBOLS];
        lit[EOB] = 1;
        Tally {
            lit,
            dist: [0; DIST_CODES.len()],
            extra_bits: 0,
        }
    }

    /// Length in bytes of the `lzc` stream of the tallied tokens.
    fn compressed_len(&self) -> usize {
        let lit_lens = code_lengths(&self.lit);
        let dist_lens = code_lengths(&self.dist);
        // Header table: 4 bits per code length; then every symbol
        // occurrence costs its canonical code length.
        let mut bits = 4 * (LIT_SYMBOLS + DIST_CODES.len()) as u64 + self.extra_bits;
        for (freq, len) in self.lit.iter().zip(&lit_lens) {
            bits += freq * u64::from(*len);
        }
        for (freq, len) in self.dist.iter().zip(&dist_lens) {
            bits += freq * u64::from(*len);
        }
        // 4-byte magic + 8-byte raw length + zero-padded final partial byte.
        12 + bits.div_ceil(8) as usize
    }
}

impl Sink for Tally {
    #[inline]
    fn literal(&mut self, byte: u8) {
        self.lit[usize::from(byte)] += 1;
    }

    #[inline]
    fn matched(&mut self, len: usize, dist: usize) {
        let lc = usize::from(LEN_CODE_OF[len]);
        self.lit[257 + lc] += 1;
        let dc = dist_code(dist);
        self.dist[dc] += 1;
        self.extra_bits += u64::from(LEN_CODES[lc].1 + DIST_CODES[dc].1);
    }
}

/// Hash-chain match finder: `head[h]` is the latest position whose next
/// four bytes hash to `h`, `prev[p]` the position before `p` on its
/// chain (`u32::MAX` ends a chain).
struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl Chains {
    /// Empty chains for an input of `n` bytes. `prev` is not cleared: a
    /// position's entry is written when the position joins a chain,
    /// before anything can reach it.
    fn reset(&mut self, n: usize) {
        self.head.clear();
        self.head.resize(1 << HASH_BITS, u32::MAX);
        if self.prev.len() < n {
            self.prev.resize(n, u32::MAX);
        }
    }

    /// Put position `i` (hash `h`) at the head of its chain, logging the
    /// overwritten head into `undo` when there is one.
    #[inline]
    fn insert(&mut self, h: usize, i: usize, undo: &mut Option<&mut Vec<(u32, u32)>>) {
        if let Some(log) = undo {
            log.push((h as u32, self.head[h]));
        }
        self.prev[i] = self.head[h];
        self.head[h] = i as u32;
    }
}

/// Per-thread buffers of the tokenizer, kept between calls and grown to
/// the largest input seen: the hash chains, the `x‖y` concatenation of
/// [`compressed_len_pair`] and its undo log.
struct Scratch {
    chains: Chains,
    joined: Vec<u8>,
    undo: Vec<(u32, u32)>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            chains: Chains { head: Vec::new(), prev: Vec::new() },
            joined: Vec::new(),
            undo: Vec::new(),
        })
    };
}

fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max` (with `a < b` and `b + max <= data.len()`), compared eight
/// bytes at a time.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let word = |s: &[u8], at: usize| {
        let mut w = [0; 8];
        w.copy_from_slice(&s[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let (x, y) = (&data[a..a + max], &data[b..b + max]);
    let mut l = 0;
    while l + 8 <= max {
        let diff = word(x, l) ^ word(y, l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && x[l] == y[l] {
        l += 1;
    }
    l
}

/// Greedy LZ77 over `data` from position `from`, emitting tokens into
/// `sink` until the next token would start at or after `stop`; returns
/// where that token starts.
///
/// A token is fixed by the bytes it compares and the chains it walks.
/// Every comparison at position `i` lies within `data[..i + MAX_MATCH]`,
/// and every candidate lies before `i`; so two inputs that share their
/// first `k` bytes get the same tokens at every `i` with
/// `i + MAX_MATCH <= k`, given the same chains. [`compressed_len_pair`]
/// builds on that.
fn tokenize(
    data: &[u8],
    from: usize,
    stop: usize,
    chains: &mut Chains,
    mut undo: Option<&mut Vec<(u32, u32)>>,
    sink: &mut impl Sink,
) -> usize {
    let n = data.len();
    let mut i = from;
    while i < stop {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash4(data, i);
            let max = (n - i).min(MAX_MATCH);
            let mut cand = chains.head[h];
            let mut chain = 0;
            while cand != u32::MAX && chain < MAX_CHAIN {
                let c = cand as usize;
                // Quick reject on the first byte beyond the current best.
                if best_len == 0 || data[c + best_len] == data[i + best_len] {
                    let l = match_len(data, c, i, max);
                    if l >= MIN_MATCH && l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l == max {
                            break;
                        }
                    }
                }
                cand = chains.prev[c];
                chain += 1;
            }
            chains.insert(h, i, &mut undo);
        }
        if best_len >= MIN_MATCH {
            sink.matched(best_len, best_dist);
            // Insert the skipped positions too (O(1) each).
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            for j in i + 1..end {
                chains.insert(hash4(data, j), j, &mut undo);
            }
            i += best_len;
        } else {
            sink.literal(data[i]);
            i += 1;
        }
    }
    i
}

/// Compress `data` into an `lzc` stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = with_scratch(|s| {
        s.chains.reset(data.len());
        let mut tokens = Vec::with_capacity(data.len() / 3);
        tokenize(data, 0, data.len(), &mut s.chains, None, &mut tokens);
        tokens
    });
    let mut tally = Tally::new();
    for t in &tokens {
        match *t {
            Token::Literal(b) => tally.literal(b),
            Token::Match { len, dist } => tally.matched(len, dist),
        }
    }
    let lit_lens = code_lengths(&tally.lit);
    let dist_lens = code_lengths(&tally.dist);
    let lit_enc = Encoder::from_lengths(&lit_lens);
    let dist_enc = Encoder::from_lengths(&dist_lens);

    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(b"LZC1");
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());

    let mut w = BitWriter::new();
    for &l in lit_lens.iter().chain(dist_lens.iter()) {
        w.put(l as u32, 4);
    }
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.put(&mut w, b as usize),
            Token::Match { len, dist } => {
                let lc = usize::from(LEN_CODE_OF[len]);
                lit_enc.put(&mut w, 257 + lc);
                let (base, extra) = LEN_CODES[lc];
                w.put((len - base) as u32, extra);
                let dc = dist_code(dist);
                dist_enc.put(&mut w, dc);
                let (dbase, dextra) = DIST_CODES[dc];
                w.put((dist - dbase) as u32, dextra);
            }
        }
    }
    lit_enc.put(&mut w, EOB);
    out.extend_from_slice(&w.finish());
    out
}

/// Decompress an `lzc` stream produced by [`compress`].
///
/// # Errors
///
/// Returns [`LzError`] on bad magic, truncation, invalid codes, or
/// out-of-range match references.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, LzError> {
    let (lcodes, dcodes) = (&LEN_CODES, &DIST_CODES);
    if stream.len() < 12 || &stream[..4] != b"LZC1" {
        return Err(LzError::BadMagic);
    }
    let raw_len = u64::from_le_bytes(stream[4..12].try_into().unwrap()) as usize;
    let mut r = BitReader::new(&stream[12..]);
    let n_lit = 257 + lcodes.len();
    let mut lit_lens = vec![0u8; n_lit];
    let mut dist_lens = vec![0u8; dcodes.len()];
    for l in lit_lens.iter_mut().chain(dist_lens.iter_mut()) {
        *l = r.get(4).map_err(|_| LzError::Corrupt("table"))? as u8;
    }
    let lit_dec = Decoder::from_lengths(&lit_lens);
    let dist_dec = Decoder::from_lengths(&dist_lens);

    // Cap the pre-allocation: `raw_len` comes from the (possibly corrupt)
    // stream and must not drive an unbounded allocation.
    let mut out = Vec::with_capacity(raw_len.min(1 << 22));
    loop {
        let sym = lit_dec
            .get(&mut r)
            .map_err(|_| LzError::Corrupt("literal"))? as usize;
        if sym < 256 {
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let (base, extra) = lcodes
                .get(sym - 257)
                .copied()
                .ok_or(LzError::Corrupt("length code"))?;
            let len = base + r.get(extra).map_err(|_| LzError::Corrupt("length"))? as usize;
            let dc = dist_dec
                .get(&mut r)
                .map_err(|_| LzError::Corrupt("distance"))? as usize;
            let (dbase, dextra) = dcodes
                .get(dc)
                .copied()
                .ok_or(LzError::Corrupt("distance code"))?;
            let dist = dbase + r.get(dextra).map_err(|_| LzError::Corrupt("distance"))? as usize;
            if dist == 0 || dist > out.len() {
                return Err(LzError::Corrupt("match out of range"));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() > raw_len {
            return Err(LzError::Corrupt("output longer than declared"));
        }
    }
    if out.len() != raw_len {
        return Err(LzError::Corrupt("output shorter than declared"));
    }
    Ok(out)
}

/// Length in bytes of the compressed form of `data`.
///
/// This is `C(x)` in the paper's NCD formula (Equation 1), and the only
/// thing NCD needs, so it is computed by *counting* output bits instead
/// of materializing the compressed bytes: the tokenizer feeds a tally
/// of symbol frequencies (no token list, no bit-writer, no output
/// buffer), and the count uses the same code-length tables [`compress`]
/// does, so it is exact (`compressed_len(x) == compress(x).len()`, pinned
/// by a property test).
pub fn compressed_len(data: &[u8]) -> usize {
    with_scratch(|s| {
        s.chains.reset(data.len());
        let mut tally = Tally::new();
        tokenize(data, 0, data.len(), &mut s.chains, None, &mut tally);
        tally.compressed_len()
    })
}

/// `(C(x), C(x‖y))` from one tokenization of their shared part.
///
/// Every token that starts at least [`MAX_MATCH`] bytes before the end
/// of `x` is the same in both inputs (see [`tokenize`]), so that prefix
/// is tokenized once, over the concatenation, into a shared tally. The
/// rest of `x` is then tokenized alone (where matches stop at the end of
/// `x`), logging every `head` write; the writes are rolled back, and the
/// concatenation continues from the same point into `y`. The stale
/// `prev` entries the `x`-only tail leaves behind cannot be reached once
/// `head` is restored: the continuation rewrites each position's entry
/// as it puts the position back on a chain. One subtlety: the last
/// shared match may have put positions within three bytes of the end of
/// `x` on chains, which `x` alone would not do; but then fewer than four
/// bytes of `x` remain after it, and `x` alone ends in literals without
/// reading a chain.
///
/// Equal to `(compressed_len(x), compressed_len(x‖y))`, pinned by
/// property tests. It tokenizes `|x| + |y|` bytes, fewer than
/// [`MAX_MATCH`] of them twice, where two calls would tokenize
/// `2|x| + |y|`.
pub(crate) fn compressed_len_pair(x: &[u8], y: &[u8]) -> (usize, usize) {
    with_scratch(|s| {
        let Scratch {
            chains,
            joined,
            undo,
        } = s;
        joined.clear();
        joined.extend_from_slice(x);
        joined.extend_from_slice(y);
        chains.reset(joined.len());
        let mut shared = Tally::new();
        let split = (x.len() + 1).saturating_sub(MAX_MATCH);
        let split = tokenize(joined, 0, split, chains, None, &mut shared);

        let mut alone = shared.clone();
        undo.clear();
        tokenize(
            &joined[..x.len()],
            split,
            x.len(),
            chains,
            Some(undo),
            &mut alone,
        );
        for &(h, old) in undo.iter().rev() {
            chains.head[h as usize] = old;
        }

        tokenize(joined, split, joined.len(), chains, None, &mut shared);
        (alone.compressed_len(), shared.compressed_len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"boilerplate-"
            .iter()
            .copied()
            .cycle()
            .take(40_000)
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 20, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_survives() {
        // A simple xorshift stream — no long repeats.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        round_trip(&data);
        let c = compress(&data);
        // Overhead must stay modest.
        assert!(c.len() < data.len() + data.len() / 8 + 512);
    }

    #[test]
    fn long_range_matches_are_found() {
        // Two identical 100 KiB halves of incompressible data: the second
        // half should compress to almost nothing thanks to the wide window.
        let mut x = 0xdeadbeefu32;
        let half: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect();
        let mut data = half.clone();
        data.extend_from_slice(&half);
        let c_half = compressed_len(&half);
        let c_full = compressed_len(&data);
        assert!(
            c_full < c_half + c_half / 4,
            "no long-range match: {c_full} vs {c_half}"
        );
        round_trip(&data);
    }

    #[test]
    fn max_length_matches() {
        let data = vec![0xAAu8; 10_000];
        round_trip(&data);
    }

    #[test]
    fn compressed_len_counts_exactly() {
        // The counting fast path and the materializing compressor must
        // agree on every shape: empty, sub-MIN_MATCH, literal-only,
        // match-heavy, and mixed streams.
        let mut x = 0xc0ffee11u32;
        let noisy: Vec<u8> = (0..30_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect();
        let mut mixed = noisy.clone();
        mixed.extend_from_slice(&noisy[..10_000]);
        for data in [
            &b""[..],
            b"ab",
            b"abc",
            b"abcd",
            &vec![7u8; 5_000],
            &noisy,
            &mixed,
        ] {
            assert_eq!(
                compressed_len(data),
                compress(data).len(),
                "len {}",
                data.len()
            );
        }
    }

    #[test]
    fn pair_is_exact_at_every_split_near_max_match() {
        // A cycled `x` tokenizes as a few literals and then back-to-back
        // `MAX_MATCH` matches, and a `y` that continues the cycle lets the
        // last of them run on past the end of `x`. Sweeping `|x|` across
        // `MAX_MATCH` plus the literal run puts a match start at every
        // offset from the end of `x`, including the last shared match
        // ending within three bytes of it (where the shared pass chains
        // positions that `x` alone would not).
        for stride in 1..=16 {
            let cycle = |from: usize, n: usize| -> Vec<u8> {
                (from..from + n).map(|i| (i % stride) as u8 * 7).collect()
            };
            for n in MAX_MATCH - 48..=MAX_MATCH + 24 {
                let x = cycle(0, n);
                for y in [cycle(n, 300), Vec::new()] {
                    let joined = [&x[..], &y[..]].concat();
                    assert_eq!(
                        compressed_len_pair(&x, &y),
                        (compress(&x).len(), compress(&joined).len()),
                        "stride {stride}, |x| {n}, |y| {}",
                        y.len()
                    );
                }
            }
        }
    }

    #[test]
    fn pair_takes_the_match_x_alone_takes_at_the_last_shared_position() {
        // At the first position that must not be shared (`MAX_MATCH` bytes
        // before the end of `x`), the newest candidate matches to the end
        // of `x` and stops, while an older one runs on into `y`. `x` alone
        // takes the newest at full length; `x‖y` takes the older, one byte
        // longer and much farther back.
        let mut s = 0x2545_f491u32;
        let mut random = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 17;
                    s ^= s << 5;
                    (s >> 8) as u8
                })
                .collect()
        };
        let run = random(MAX_MATCH - 1);
        let mut x = run.clone();
        x.push(b'A');
        x.extend(random(3000));
        x.extend_from_slice(&run);
        x.push(b'B');
        x.extend(random(100));
        x.extend_from_slice(&run);
        let mut y = vec![b'A'];
        y.extend(random(50));
        let joined = [&x[..], &y[..]].concat();
        let (alone, both) = compressed_len_pair(&x, &y);
        assert_eq!((alone, both), (compress(&x).len(), compress(&joined).len()));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decompress(b"nope"), Err(LzError::BadMagic));
        let mut c = compress(b"hello world hello world hello world");
        c.truncate(c.len() - 1);
        assert!(matches!(decompress(&c), Err(LzError::Corrupt(_))));
    }

    /// The largest code whose base is at most `value`: the table search
    /// the lookups replace.
    fn code_for(codes: &[(usize, u32)], value: usize) -> usize {
        match codes.binary_search_by(|(b, _)| b.cmp(&value)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    #[test]
    fn code_tables_are_monotone() {
        for table in [&LEN_CODES[..], &DIST_CODES[..]] {
            for w in table.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
        assert_eq!(LEN_CODES[0].0, 3);
        assert!(LEN_CODES.last().unwrap().0 <= MAX_MATCH + 1);
        // Every length in 3..=258 maps to a code whose range contains it.
        for len in 3..=MAX_MATCH {
            let c = code_for(&LEN_CODES, len);
            let (base, extra) = LEN_CODES[c];
            assert!(base <= len && len < base + (1 << extra).max(1));
        }
    }

    #[test]
    fn code_lookups_agree_with_the_table_search() {
        for (len, &code) in LEN_CODE_OF.iter().enumerate().skip(3) {
            assert_eq!(usize::from(code), code_for(&LEN_CODES, len), "len {len}");
        }
        let edges = (0..27).flat_map(|b| {
            let p = 1usize << b;
            [p - 1, p, p + 1, p + p / 2, p + p / 2 + 1]
        });
        for dist in (1..5000).chain(edges).filter(|&d| d > 0) {
            assert_eq!(dist_code(dist), code_for(&DIST_CODES, dist), "dist {dist}");
        }
    }
}
