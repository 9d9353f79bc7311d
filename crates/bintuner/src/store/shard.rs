//! Shard routing and the on-disk log format.
//!
//! One v4 store directory holds `shard-NN.log` files, each an
//! append-only log of fixed-size checksummed records behind a 12-byte
//! shard header that names the shard's index and the store's shard
//! count, so a file moved between stores of different geometry is
//! detected instead of misread.
//!
//! Routing is a pure function of the key over [`minicc::StableHasher`]
//! (FNV-1a with an explicit canonical encoding) — **not** a std hasher,
//! which is process-seeded: the same key must land in the same shard
//! across runs and platforms, or a warm store would silently
//! cold-start.

use super::index::ShardIndex;
use super::{
    FlagBits, PendingRecord, StoreKey, StoredFitness, FORMAT_VERSION, MAGIC, MAX_STORED_FLAGS,
};
use binrep::{CodecError, Cursor};
use bytes::BufMut;
use minicc::fnv1a32 as checksum;
use minicc::{ModuleFeatures, StableHasher};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// v4 shard file header: magic + format version + shard index (u16) +
/// shard count (u16).
pub(super) const SHARD_HEADER_LEN: usize = 12;
/// Tagged record payload: 1 tag byte + 65 body bytes (the fitness body:
/// module_hash(8) + compiler(1) + arch(1) + digest(16) + fitness(8) +
/// failed(1) + n_flags(2) + flag bitmap(24) + generation(4); the
/// features body is shorter and zero-padded to the same width), plus a
/// 4-byte FNV-1a checksum.
pub(super) const RECORD_BODY_LEN: usize = 65;
pub(super) const RECORD_PAYLOAD_LEN: usize = 1 + RECORD_BODY_LEN;
pub(super) const RECORD_LEN: usize = RECORD_PAYLOAD_LEN + 4;
/// Compaction floor per shard: below this many disk records, dead
/// entries are not worth a rewrite.
pub(super) const COMPACT_MIN_RECORDS: usize = 64;

pub(super) const TAG_FITNESS: u8 = 0;
pub(super) const TAG_MODULE_FEATURES: u8 = 1;

// The features body (module_hash + N u32 counts) must fit the fixed
// record body; growing ModuleFeatures::N past this is a format change.
const _: () = assert!(8 + 4 * ModuleFeatures::N <= RECORD_BODY_LEN);

/// Domain seed for shard routing (distinct from every digest seed so a
/// routing hash can never alias a content hash).
const SHARD_SEED: u64 = 0x0053_4841_5244; // "SHARD"

/// The shard a fitness key routes to — a pure function of the key and
/// the shard count, stable across runs and platforms.
pub fn shard_for(key: &StoreKey, shard_count: usize) -> usize {
    let mut h = StableHasher::with_seed(SHARD_SEED);
    h.write_u64(key.module_hash);
    h.write_u8(key.compiler);
    h.write_u8(key.arch);
    h.write_u64((key.effect_digest >> 64) as u64);
    h.write_u64(key.effect_digest as u64);
    (h.finish() % shard_count.max(1) as u64) as usize
}

/// The shard a module's features record routes to. Keyed by module hash
/// alone (features have no effect digest), same seed and discipline as
/// [`shard_for`].
pub fn shard_for_module(module_hash: u64, shard_count: usize) -> usize {
    let mut h = StableHasher::with_seed(SHARD_SEED);
    h.write_u64(module_hash);
    (h.finish() % shard_count.max(1) as u64) as usize
}

/// `shard-NN.log` inside the store directory.
pub(super) fn shard_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("shard-{idx:02}.log"))
}

fn shard_header(idx: usize, shard_count: usize) -> [u8; SHARD_HEADER_LEN] {
    let mut h = [0u8; SHARD_HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..10].copy_from_slice(&(idx as u16).to_le_bytes());
    h[10..12].copy_from_slice(&(shard_count as u16).to_le_bytes());
    h
}

/// Parse one shard file's bytes. Never fails: a foreign header is a
/// cold shard (rewritten on save), a damaged tail is dropped while the
/// valid prefix is kept.
pub(super) fn parse_shard(bytes: &[u8], idx: usize, shard_count: usize) -> ShardIndex {
    let mut shard = ShardIndex::default();
    let mut r = Cursor::new(bytes);
    if r.take(SHARD_HEADER_LEN) != Ok(&shard_header(idx, shard_count)[..]) {
        // Distinguish "wrong version" from "not ours at all" for the
        // report, but both degrade identically.
        if bytes.len() >= 8 && bytes.starts_with(&MAGIC) {
            shard.report.version_mismatch = true;
        } else {
            shard.report.malformed_header = true;
        }
        shard.report.dropped_bytes = bytes.len();
        shard.needs_rewrite = true;
        return shard;
    }
    parse_records(&mut r, &mut shard);
    shard.report.valid_records = shard.disk_records;
    if r.remaining() > 0 {
        // Truncated or corrupt tail: appending after it would misalign
        // every future record, so force a rewrite.
        shard.report.dropped_bytes = r.remaining();
        shard.needs_rewrite = true;
    }
    shard
}

/// The shard count a shard file's header records, if the file starts
/// with our magic (the geometry hint for a store that lost its
/// manifest).
pub(super) fn header_shard_count(bytes: &[u8]) -> Option<usize> {
    let mut r = Cursor::new(bytes);
    if r.take(4).ok()? != MAGIC {
        return None;
    }
    r.take(6).ok()?; // format version + shard index
    r.u16().ok().map(usize::from)
}

/// Decode checksummed records into `shard` until the bytes run out or a
/// record fails its checksum/tag check, leaving the cursor after the
/// last record kept.
fn parse_records(r: &mut Cursor<'_>, shard: &mut ShardIndex) {
    loop {
        let mut c = *r;
        let Ok(payload) = c.take(RECORD_PAYLOAD_LEN) else {
            return;
        };
        if c.u32() != Ok(checksum(payload)) || decode_record(payload, shard).is_err() {
            return;
        }
        shard.disk_records += 1;
        *r = c;
    }
}

/// Decode one checksum-verified payload. An unknown tag is an error
/// (treated as a corrupt tail — same-version files only ever carry
/// known tags).
fn decode_record(payload: &[u8], shard: &mut ShardIndex) -> Result<(), CodecError> {
    let mut r = Cursor::new(payload);
    match r.u8()? {
        TAG_FITNESS => {
            let (key, value) = decode_fitness(&mut r)?;
            shard.entries.insert(key, value);
        }
        TAG_MODULE_FEATURES => {
            let (hash, feats) = decode_features(&mut r)?;
            shard.features.insert(hash, feats);
        }
        t => return Err(CodecError::BadTag("record", t)),
    }
    Ok(())
}

/// Load one shard from disk. A missing file is an empty shard (clean —
/// shards materialize on first write).
pub(super) fn load_shard(dir: &Path, idx: usize, shard_count: usize) -> ShardIndex {
    match fs::read(shard_path(dir, idx)) {
        Ok(bytes) => parse_shard(&bytes, idx, shard_count),
        Err(_) => {
            let mut shard = ShardIndex::default();
            shard.report.missing = true;
            shard
        }
    }
}

/// Flush one shard's pending records to its log file. The caller holds
/// the shard's [`super::StoreLock`].
///
/// Fast path: one appended `write_all`. The file is rewritten wholesale
/// — to a temp file, then atomically `rename`d into place — when it was
/// corrupt/missing or when dead records make compaction worthwhile.
/// `force_rewrite` is the public compaction hook.
///
/// The rewrite **re-reads the file under the lock and merges** before
/// writing: a record appended by another process since our load is
/// preserved (disk wins for keys we did not re-insert ourselves), so
/// per-shard compaction can run concurrently with writers of the same
/// store without losing records.
pub(super) fn save_shard(
    dir: &Path,
    idx: usize,
    shard_count: usize,
    shard: &mut ShardIndex,
    force_rewrite: bool,
) -> std::io::Result<()> {
    let path = shard_path(dir, idx);
    let future_records = shard.disk_records + shard.pending.len();
    let compact = force_rewrite
        || shard.needs_rewrite
        || !path.exists()
        || (future_records >= COMPACT_MIN_RECORDS && shard.live() * 2 <= future_records);
    if compact {
        rewrite_shard(&path, idx, shard_count, shard)
    } else {
        append_shard(&path, shard)
    }
}

fn rewrite_shard(
    path: &Path,
    idx: usize,
    shard_count: usize,
    shard: &mut ShardIndex,
) -> std::io::Result<()> {
    // Merge under the lock: fresh disk state, overlaid with our own
    // entries for keys the disk lacks, overlaid with our pending
    // inserts (ours are the newest values for those keys).
    let mut merged = match fs::read(path) {
        Ok(bytes) => parse_shard(&bytes, idx, shard_count),
        Err(_) => ShardIndex::default(),
    };
    for (key, value) in &shard.entries {
        merged.entries.entry(*key).or_insert(*value);
    }
    for (hash, feats) in &shard.features {
        merged.features.entry(*hash).or_insert(*feats);
    }
    for rec in &shard.pending {
        match rec {
            PendingRecord::Fitness(key, value) => {
                merged.entries.insert(*key, *value);
            }
            PendingRecord::Features(hash, feats) => {
                merged.features.insert(*hash, *feats);
            }
        }
    }

    let mut buf: Vec<u8> = Vec::with_capacity(SHARD_HEADER_LEN + merged.live() * RECORD_LEN);
    buf.put_slice(&shard_header(idx, shard_count));
    for (&hash, feats) in &merged.features {
        encode_features_record(hash, feats, &mut buf);
    }
    for (key, value) in &merged.entries {
        encode_fitness_record(key, value, &mut buf);
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, &buf)?;
    fs::rename(&tmp, path)?;

    shard.entries = merged.entries;
    shard.features = merged.features;
    shard.disk_records = shard.live();
    shard.pending.clear();
    shard.needs_rewrite = false;
    Ok(())
}

fn append_shard(path: &Path, shard: &mut ShardIndex) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(shard.pending.len() * RECORD_LEN);
    for rec in &shard.pending {
        match rec {
            PendingRecord::Fitness(key, value) => encode_fitness_record(key, value, &mut buf),
            PendingRecord::Features(hash, feats) => encode_features_record(*hash, feats, &mut buf),
        }
    }
    let mut file = fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(&buf)?;
    shard.disk_records += shard.pending.len();
    shard.pending.clear();
    Ok(())
}

// ---------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------

/// Append the checksum over the record payload written since `start`,
/// after zero-padding the body to its fixed width.
fn finish_record(start: usize, out: &mut Vec<u8>) {
    while out.len() - start < RECORD_PAYLOAD_LEN {
        out.put_u8(0);
    }
    debug_assert_eq!(out.len() - start, RECORD_PAYLOAD_LEN);
    let ck = checksum(&out[start..]);
    out.put_u32_le(ck);
}

/// A [`StoreKey`]'s 26 bytes, as fitness records and binary blobs both
/// carry it (a `u128` high half first, as [`Cursor::u128`] reads it).
pub(super) fn put_key(key: &StoreKey, out: &mut Vec<u8>) {
    out.put_u64_le(key.module_hash);
    out.put_u8(key.compiler);
    out.put_u8(key.arch);
    out.put_u64_le((key.effect_digest >> 64) as u64);
    out.put_u64_le(key.effect_digest as u64);
}

/// Inverse of [`put_key`].
pub(super) fn read_key(r: &mut Cursor<'_>) -> Result<StoreKey, CodecError> {
    Ok(StoreKey {
        module_hash: r.u64()?,
        compiler: r.u8()?,
        arch: r.u8()?,
        effect_digest: r.u128()?,
    })
}

pub(super) fn encode_fitness_record(key: &StoreKey, value: &StoredFitness, out: &mut Vec<u8>) {
    let start = out.len();
    out.put_u8(TAG_FITNESS);
    put_key(key, out);
    out.put_u64_le(value.fitness.to_bits());
    out.put_u8(value.failed as u8);
    out.put_u16_le(value.flags.n);
    out.put_slice(&value.flags.bits);
    out.put_u32_le(value.generation);
    finish_record(start, out);
}

pub(super) fn encode_features_record(module_hash: u64, feats: &ModuleFeatures, out: &mut Vec<u8>) {
    let start = out.len();
    out.put_u8(TAG_MODULE_FEATURES);
    out.put_u64_le(module_hash);
    for &c in &feats.counts {
        out.put_u32_le(c);
    }
    finish_record(start, out);
}

fn decode_fitness(r: &mut Cursor<'_>) -> Result<(StoreKey, StoredFitness), CodecError> {
    let key = read_key(r)?;
    let fitness = f64::from_bits(r.u64()?);
    let failed = r.u8()? != 0;
    let flags = FlagBits {
        n: r.u16()?.min(MAX_STORED_FLAGS as u16),
        bits: r.array()?,
    };
    let value = StoredFitness {
        fitness,
        failed,
        flags,
        generation: r.u32()?,
    };
    Ok((key, value))
}

fn decode_features(r: &mut Cursor<'_>) -> Result<(u64, ModuleFeatures), CodecError> {
    let hash = r.u64()?;
    let mut feats = ModuleFeatures::default();
    for c in &mut feats.counts {
        *c = r.u32()?;
    }
    Ok((hash, feats))
}
