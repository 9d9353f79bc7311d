//! Binary blobs: the two binaries every tuning job returns, kept so a
//! warm job compiles neither.
//!
//! A job hands back its `-O0` baseline and its winner's binary. Both are
//! pure functions of a fitness [`StoreKey`] (the baseline's is the `-O0`
//! preset's effect digest), so each is filed as one file,
//! `<store>/binaries/<key hex>`, readable without the artifact log:
//!
//! * **Format** — magic `BTBN`, the store's [`FORMAT_VERSION`], the key
//!   echoed (so a blob renamed onto another key is refused), the
//!   `binrep::codec` bytes, and an FNV-1a checksum over everything
//!   before it. Every byte is read through [`Cursor`]. A blob must also
//!   decode to a binary for the key's arch that passes
//!   [`Binary::validate`].
//! * **A cache, not a record** — a missing, torn, foreign or corrupt
//!   blob reads as absent: the caller compiles, bit-identically, and the
//!   next save replaces the file.
//! * **Writes** — each pending blob goes to a temp file unique to its
//!   writer, then is `rename`d into place. No lock: two writers of one
//!   key write the same bytes, and the last rename wins.
//! * **Bound** — after writing, the directory is kept under
//!   [`MAX_BINARY_BYTES`] by deleting the oldest files (by modification
//!   time) first. A pruned key simply compiles again.

use super::shard::{put_key, read_key};
use super::{StoreKey, FORMAT_VERSION};
use binrep::{Binary, Cursor};
use minicc::fnv1a32 as checksum;
use std::fs;
use std::io;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Blob magic: `BTBN` (BinTuner BiNary).
const BINARY_MAGIC: [u8; 4] = *b"BTBN";

/// Size bound on the `binaries/` directory: the artifact log's default
/// budget ([`super::ArtifactRetention::max_bytes`]).
const MAX_BINARY_BYTES: u64 = 64 << 20;

/// The blob directory inside a store directory.
pub(super) fn binaries_dir(store_dir: &Path) -> PathBuf {
    store_dir.join("binaries")
}

/// `<key hex>`: module hash, compiler, arch, effect digest.
pub(super) fn file_name(key: &StoreKey) -> String {
    format!(
        "{:016x}{:02x}{:02x}{:032x}",
        key.module_hash, key.compiler, key.arch, key.effect_digest
    )
}

/// The whole blob file for `bin` under `key`.
pub(super) fn encode(key: &StoreKey, bin: &Binary) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_key(key, &mut out);
    out.extend_from_slice(&binrep::codec::encode_binary(bin));
    let ck = checksum(&out);
    out.extend_from_slice(&ck.to_le_bytes());
    out
}

/// The binary a blob file holds for `key`, or `None` when the bytes are
/// not a whole, intact blob of this key (see the module docs).
pub(super) fn decode(bytes: &[u8], key: &StoreKey) -> Option<Binary> {
    let mut r = Cursor::new(bytes);
    let body = r.take(bytes.len().checked_sub(4)?).ok()?;
    if r.u32().ok()? != checksum(body) {
        return None;
    }
    let mut r = Cursor::new(body);
    if r.take(4).ok()? != BINARY_MAGIC
        || r.u32().ok()? != FORMAT_VERSION
        || read_key(&mut r).ok()? != *key
    {
        return None;
    }
    let bin = binrep::codec::decode_binary(r.take(r.remaining()).ok()?).ok()?;
    (bin.arch.tag() == key.arch && bin.validate().is_ok()).then_some(bin)
}

/// Read `key`'s blob from the store directory `dir`.
pub(super) fn read(dir: &Path, key: &StoreKey) -> Option<Binary> {
    decode(&fs::read(binaries_dir(dir).join(file_name(key))).ok()?, key)
}

/// Write every pending blob (tmp + rename, in insertion order), then
/// bound the directory. A failed write keeps it and the blobs after it
/// pending.
pub(super) fn write_pending(dir: &Path, pending: &mut Vec<(StoreKey, Vec<u8>)>) -> io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    let bins = binaries_dir(dir);
    fs::create_dir_all(&bins)?;
    for (i, (key, bytes)) in pending.iter().enumerate() {
        if let Err(e) = write_atomic(&bins, &file_name(key), bytes) {
            pending.drain(..i);
            return Err(e);
        }
    }
    pending.clear();
    prune(&bins, MAX_BINARY_BYTES)
}

/// Temp names unique to this writer: the pid tells processes apart, the
/// counter threads of one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn write_atomic(bins: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = bins.join(format!("{name}.{}.{seq}.tmp", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, bins.join(name)).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Delete the oldest files in `bins` (modification time, then name)
/// until the rest fit in `cap` bytes. A file another pruner removed
/// first is not an error.
pub(crate) fn prune(bins: &Path, cap: u64) -> io::Result<()> {
    let mut files = Vec::new();
    let mut total = 0u64;
    for entry in fs::read_dir(bins)? {
        let entry = entry?;
        let Ok(meta) = entry.metadata() else {
            continue; // removed since the listing
        };
        if meta.is_file() {
            total += meta.len();
            files.push((
                meta.mtime(),
                meta.mtime_nsec(),
                entry.file_name(),
                meta.len(),
            ));
        }
    }
    if total <= cap {
        return Ok(());
    }
    files.sort();
    for (_, _, name, len) in files {
        if total <= cap {
            break;
        }
        match fs::remove_file(bins.join(name)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        total -= len;
    }
    Ok(())
}
