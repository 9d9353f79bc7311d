//! Persistent stage-artifact store — the disk sibling of the engine's
//! tier-0 artifact cache.
//!
//! The staged compile pipeline (PR 5) reuses optimized ASTs and lowered
//! binaries *within* a run; this store keeps the hot ones *across* runs,
//! next to the fitness shards (`<store-dir>/artifacts.log`). Records are
//! keyed by stage digests plus the module **body** hash
//! ([`minicc::ast::Module::body_hash`] — everything except the name), so
//! a renamed-but-otherwise-identical module, whose fitness keys are all
//! cold, still warm-starts its compiles from the previous run's
//! artifacts.
//!
//! Retention is sized by **measured per-stage cost**, not the in-run
//! multiplicity>=2 heuristic: each record carries the seconds its stage
//! took to produce, [`ArtifactRetention::min_stage_seconds`] drops
//! artifacts too cheap to be worth disk, and when the log exceeds
//! [`ArtifactRetention::max_bytes`] the cheapest artifacts are evicted
//! first (they cost the least to recompute).
//!
//! The log is read lazily and at most once per store value: loading
//! records the path, and the offset index is built on the first query,
//! fetch, insert or report. The engine only asks while it classifies a
//! batch with misses, so a re-tune served wholly from the fitness store
//! never opens the log, and a tune with misses indexes it before its
//! first miss is classified — the same index an eager load would build.
//!
//! Same corruption discipline as the fitness shards: length-prefixed
//! FNV-checksummed records, indexing never fails (valid prefix kept,
//! damaged tail dropped, foreign file is a cold start), one
//! [`StoreLock`] on the log across saves, atomic tmp+rename when
//! eviction forces a rewrite — after re-reading the log under that
//! lock, so another writer's appends are merged, never lost.

use super::{LoadReport, SaveOutcome, StoreLock};
use binrep::{CodecError, Cursor};
use bytes::BufMut;
use minicc::fnv1a32 as checksum;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Artifact log magic: `BTAS` (BinTuner Artifact Store) + version.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"BTAS";
const ARTIFACT_VERSION: u32 = 1;
const ARTIFACT_HEADER_LEN: usize = 8;

const TAG_AST: u8 = 0;
const TAG_LOWER: u8 = 1;

/// Fixed prefix of an AST record's payload: tag + key (8+1+16) + cost.
const AST_FIXED: usize = 1 + 25 + 8;
/// Fixed prefix of a lower record's payload: tag + key (8+1+1+16+16) +
/// cost.
const LOWER_FIXED: usize = 1 + 42 + 8;

/// Sanity cap on a single record payload — a forged length beyond this
/// is treated as a corrupt tail instead of driving an allocation.
const MAX_PAYLOAD: usize = 64 << 20;

/// Key of a persisted optimized-AST artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AstArtifactKey {
    /// [`minicc::ast::Module::body_hash`] of the source module.
    pub body_hash: u64,
    /// [`minicc::CompilerKind::stable_id`] tag.
    pub compiler: u8,
    /// AST-stage digest (`minicc::stage::AstStageKey::stable_digest`).
    pub ast_digest: u128,
}

/// Key of a persisted lowered-binary artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LowerArtifactKey {
    /// [`minicc::ast::Module::body_hash`] of the source module.
    pub body_hash: u64,
    /// [`minicc::CompilerKind::stable_id`] tag.
    pub compiler: u8,
    /// [`binrep::Arch::tag`] of the target.
    pub arch: u8,
    /// AST-stage digest the lowering consumed.
    pub ast_digest: u128,
    /// Lower-stage digest (`minicc::stage::LowerStageKey::stable_digest`).
    pub lower_digest: u128,
}

/// Retention policy: which artifacts earn disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtifactRetention {
    /// Soft cap on the log's total size. When exceeded at save time the
    /// log is rewritten keeping the most expensive artifacts first.
    pub max_bytes: u64,
    /// Artifacts whose stage took less than this many seconds to
    /// produce are not persisted (and are evicted on the next rewrite):
    /// recomputing them is cheaper than the disk traffic.
    pub min_stage_seconds: f64,
}

impl Default for ArtifactRetention {
    fn default() -> ArtifactRetention {
        ArtifactRetention {
            max_bytes: 64 << 20,
            min_stage_seconds: 0.0,
        }
    }
}

/// Where a live artifact sits in the log.
#[derive(Debug, Clone, Copy)]
struct DiskArtifact {
    /// Offset of the record's length prefix.
    record_off: u64,
    /// Whole record length (prefix + payload + checksum).
    record_len: u32,
    /// Blob position within the file.
    blob_off: u64,
    blob_len: u32,
    /// Measured stage seconds (the retention currency).
    cost: f64,
}

/// A pending (not yet saved) artifact.
#[derive(Debug, Clone)]
struct PendingArtifact<K> {
    key: K,
    cost: f64,
    blob: Vec<u8>,
}

/// Artifacts drained out of a store's pending queues
/// ([`ArtifactStore::drain_pending`]): `(key, stage seconds, blob)`
/// triples, ready to ride an evaluation-service `Result` frame.
#[derive(Debug, Clone, Default)]
pub struct PendingArtifacts {
    /// Pending optimized-AST artifacts.
    pub ast: Vec<(AstArtifactKey, f64, Vec<u8>)>,
    /// Pending lowered-binary artifacts.
    pub lower: Vec<(LowerArtifactKey, f64, Vec<u8>)>,
}

impl PendingArtifacts {
    /// Total drained artifact count.
    pub fn len(&self) -> usize {
        self.ast.len() + self.lower.len()
    }

    /// Whether nothing was pending.
    pub fn is_empty(&self) -> bool {
        self.ast.is_empty() && self.lower.is_empty()
    }
}

/// The offset index of one verified read of the log.
#[derive(Debug, Default)]
struct LogIndex {
    ast: HashMap<AstArtifactKey, DiskArtifact>,
    lower: HashMap<LowerArtifactKey, DiskArtifact>,
    /// Total bytes of live records on disk (dead bytes excluded).
    live_bytes: u64,
    /// Bytes in the file, live or dead — the compaction trigger.
    file_bytes: u64,
    needs_rewrite: bool,
    report: LoadReport,
}

impl LogIndex {
    /// Index a log image, checksumming every payload: the clean prefix
    /// is kept, a damaged tail or a foreign header sets `needs_rewrite`.
    fn parse(bytes: &[u8]) -> LogIndex {
        let mut index = LogIndex {
            file_bytes: bytes.len() as u64,
            ..LogIndex::default()
        };
        let mut r = Cursor::new(bytes);
        if r.take(4) != Ok(&ARTIFACT_MAGIC[..]) || r.u32() != Ok(ARTIFACT_VERSION) {
            index.report.malformed_header = true;
            index.report.dropped_bytes = bytes.len();
            index.needs_rewrite = true;
            return index;
        }
        loop {
            let mut c = r;
            match read_record(&mut c) {
                Some(payload) if index.index_record(r.pos() as u64, payload).is_ok() => {
                    index.report.valid_records += 1;
                    r = c;
                }
                _ => break,
            }
        }
        index.live_bytes = index
            .ast
            .values()
            .chain(index.lower.values())
            .map(|a| u64::from(a.record_len))
            .sum();
        if r.remaining() > 0 {
            index.report.dropped_bytes = r.remaining();
            index.needs_rewrite = true;
        }
        index
    }

    /// Index one checksum-verified payload. An unknown tag or a payload
    /// shorter than its key and cost is an error (corrupt tail).
    fn index_record(&mut self, record_off: u64, payload: &[u8]) -> Result<(), CodecError> {
        let mut r = Cursor::new(payload);
        let record_len = 4 + payload.len() + 4;
        match r.u8()? {
            TAG_AST => {
                let key = AstArtifactKey {
                    body_hash: r.u64()?,
                    compiler: r.u8()?,
                    ast_digest: r.u128()?,
                };
                let cost = f64::from_bits(r.u64()?);
                self.ast
                    .insert(key, disk_at(record_off, record_len, AST_FIXED, cost));
            }
            TAG_LOWER => {
                let key = LowerArtifactKey {
                    body_hash: r.u64()?,
                    compiler: r.u8()?,
                    arch: r.u8()?,
                    ast_digest: r.u128()?,
                    lower_digest: r.u128()?,
                };
                let cost = f64::from_bits(r.u64()?);
                self.lower
                    .insert(key, disk_at(record_off, record_len, LOWER_FIXED, cost));
            }
            t => return Err(CodecError::BadTag("artifact", t)),
        }
        Ok(())
    }
}

/// One `[payload length: u32][payload][FNV-1a: u32]` record at the
/// cursor, or `None` when it is cut short, its length is out of range,
/// or its checksum fails.
fn read_record<'a>(r: &mut Cursor<'a>) -> Option<&'a [u8]> {
    let p_len = r.u32().ok()? as usize;
    if !(AST_FIXED..=MAX_PAYLOAD).contains(&p_len) {
        return None;
    }
    let payload = r.take(p_len).ok()?;
    (r.u32().ok()? == checksum(payload)).then_some(payload)
}

/// Telemetry handles of an [`ArtifactStore`].
#[derive(Debug)]
struct ArtifactTelemetry {
    save_seconds: Arc<btel::Histogram>,
    load_seconds: Arc<btel::Histogram>,
}

/// Disk-backed map from stage-digest keys to compiled artifact bytes.
///
/// [`ArtifactStore::load`] records the path only. The compact offset
/// index is built from one read of the log the first time anything
/// needs it — a membership query, a fetch, an insert, or
/// [`ArtifactStore::len`]/[`ArtifactStore::report`] — so a run whose
/// evaluations are all fitness-cache hits never opens the log; lookups
/// take `&mut self` for that reason, as [`super::FitnessStore`]'s do.
/// Blobs stay on disk: [`ArtifactStore::fetch_ast`]/
/// [`ArtifactStore::fetch_lower`] read and re-verify a record on demand.
/// Pending inserts become queryable only after [`ArtifactStore::save`] —
/// membership must look the same to every backend within a run, and
/// only the saved log is shared state.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    path: Option<PathBuf>,
    /// The log's offset index; `None` until first needed.
    index: Option<LogIndex>,
    pending_ast: Vec<PendingArtifact<AstArtifactKey>>,
    pending_lower: Vec<PendingArtifact<LowerArtifactKey>>,
    retention: ArtifactRetention,
    /// Index-build and save timing; `None` (the default) takes no
    /// telemetry path at all.
    tel: Option<ArtifactTelemetry>,
}

impl ArtifactStore {
    /// A store with no backing file; saves are no-ops.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Open the artifact log living inside store directory `dir`
    /// (`<dir>/artifacts.log`). Reads nothing: the log is indexed on
    /// first need. Never fails: a missing file or directory is a clean
    /// cold start, foreign/damaged content degrades per the usual store
    /// contract.
    pub fn load(dir: &Path) -> ArtifactStore {
        ArtifactStore {
            path: Some(dir.join("artifacts.log")),
            ..ArtifactStore::default()
        }
    }

    /// Override the retention policy (builder style).
    pub fn with_retention(mut self, retention: ArtifactRetention) -> ArtifactStore {
        self.retention = retention;
        self
    }

    /// The active retention policy.
    pub fn retention(&self) -> ArtifactRetention {
        self.retention
    }

    /// Install timing histograms, conventionally declared in the run's
    /// registry as `bintuner_store_artifact_save_seconds` (each save)
    /// and `bintuner_store_artifact_load_seconds` (each index build).
    /// Without this call the store takes no telemetry path at all.
    pub fn set_telemetry(
        &mut self,
        save_seconds: Arc<btel::Histogram>,
        load_seconds: Arc<btel::Histogram>,
    ) {
        self.tel = Some(ArtifactTelemetry {
            save_seconds,
            load_seconds,
        });
    }

    /// Whether the log has been indexed yet — observability for the
    /// lazy-index tests, like [`super::FitnessStore::shards_loaded`].
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The offset index, built from the log on first call (an
    /// in-memory store's is empty).
    fn index(&mut self) -> &mut LogIndex {
        let (path, tel) = (&self.path, &self.tel);
        self.index.get_or_insert_with(|| {
            let Some(path) = path else {
                return LogIndex::default();
            };
            let t = tel.as_ref().map(|_| Instant::now());
            let index = match fs::read(path) {
                Ok(bytes) => LogIndex::parse(&bytes),
                Err(_) => LogIndex {
                    report: LoadReport {
                        missing: true,
                        ..LoadReport::default()
                    },
                    ..LogIndex::default()
                },
            };
            if let (Some(tel), Some(t)) = (tel, t) {
                tel.load_seconds.observe_seconds(t.elapsed().as_secs_f64());
            }
            index
        })
    }

    /// What reading the log found (indexes it).
    pub fn report(&mut self) -> LoadReport {
        self.index().report
    }

    /// Live persisted artifact count, pending inserts excluded (indexes
    /// the log).
    pub fn len(&mut self) -> usize {
        let index = self.index();
        index.ast.len() + index.lower.len()
    }

    /// Whether no artifacts are persisted (indexes the log).
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Artifacts queued since the last save.
    pub fn pending_len(&self) -> usize {
        self.pending_ast.len() + self.pending_lower.len()
    }

    /// Whether a persisted optimized AST exists for this key. Membership
    /// only — the deterministic input to miss classification.
    pub fn has_ast(&mut self, key: &AstArtifactKey) -> bool {
        self.index().ast.contains_key(key)
    }

    /// Whether a persisted lowered binary exists for this key.
    pub fn has_lower(&mut self, key: &LowerArtifactKey) -> bool {
        self.index().lower.contains_key(key)
    }

    /// Read an AST artifact's blob back, re-verifying its checksum.
    /// `None` if absent or if the record fails verification (e.g. the
    /// log was compacted underneath us) — callers recompute.
    pub fn fetch_ast(&mut self, key: &AstArtifactKey) -> Option<Vec<u8>> {
        let at = *self.index().ast.get(key)?;
        self.fetch(at, &ast_sort_key(key))
    }

    /// Read a lowered-binary artifact's blob back ([`ArtifactStore::fetch_ast`]
    /// contract).
    pub fn fetch_lower(&mut self, key: &LowerArtifactKey) -> Option<Vec<u8>> {
        let at = *self.index().lower.get(key)?;
        self.fetch(at, &lower_sort_key(key))
    }

    /// Read a record back from disk, verifying both its checksum and
    /// its identity (`key_bytes` = tag + key) — a log compacted by
    /// another process may have a *different* valid record at this
    /// offset, which must read as a miss, not as the wrong blob.
    fn fetch(&self, at: DiskArtifact, key_bytes: &[u8]) -> Option<Vec<u8>> {
        let path = self.path.as_ref()?;
        let mut f = fs::File::open(path).ok()?;
        f.seek(SeekFrom::Start(at.record_off)).ok()?;
        let mut record = vec![0u8; at.record_len as usize];
        f.read_exact(&mut record).ok()?;
        let mut r = Cursor::new(&record);
        let payload = read_record(&mut r)?;
        if r.finish().is_err() || !payload.starts_with(key_bytes) {
            return None;
        }
        let blob_start = (at.blob_off - at.record_off) as usize;
        record
            .get(blob_start..blob_start + at.blob_len as usize)
            .map(<[u8]>::to_vec)
    }

    /// Queue an optimized-AST artifact (`blob` is the `minicc::codec`
    /// encoding; `cost` the measured stage seconds). No-op if the cost
    /// is below the retention floor or the key is already live or
    /// pending (indexes the log).
    pub fn insert_ast(&mut self, key: AstArtifactKey, cost: f64, blob: Vec<u8>) {
        if cost < self.retention.min_stage_seconds
            || self.index().ast.contains_key(&key)
            || self.pending_ast.iter().any(|p| p.key == key)
        {
            return;
        }
        self.pending_ast.push(PendingArtifact { key, cost, blob });
    }

    /// Queue a lowered-binary artifact (`blob` is the `binrep::codec`
    /// encoding; [`ArtifactStore::insert_ast`] contract).
    pub fn insert_lower(&mut self, key: LowerArtifactKey, cost: f64, blob: Vec<u8>) {
        if cost < self.retention.min_stage_seconds
            || self.index().lower.contains_key(&key)
            || self.pending_lower.iter().any(|p| p.key == key)
        {
            return;
        }
        self.pending_lower.push(PendingArtifact { key, cost, blob });
    }

    /// Drain the artifacts queued since the last save (or drain),
    /// clearing the pending queues — the client side of the evaluation
    /// service ships these back on each shard's `Result` frame so farm
    /// workers' freshly computed stage artifacts reach the server's
    /// persistent log. Each entry is `(key, measured stage seconds,
    /// encoded blob)`.
    pub fn drain_pending(&mut self) -> PendingArtifacts {
        PendingArtifacts {
            ast: self
                .pending_ast
                .drain(..)
                .map(|p| (p.key, p.cost, p.blob))
                .collect(),
            lower: self
                .pending_lower
                .drain(..)
                .map(|p| (p.key, p.cost, p.blob))
                .collect(),
        }
    }

    /// Flush pending artifacts under the log's [`StoreLock`].
    ///
    /// Fast path appends; the log is rewritten (tmp + atomic rename)
    /// when it was corrupt, when dead records dominate, or when the
    /// retention budget is exceeded — eviction drops the cheapest
    /// artifacts first, deterministically. A store never indexed has
    /// nothing pending and saves nothing. A missing parent directory
    /// (the fitness store has not been saved as v4 yet) or a contended
    /// lock degrades to [`SaveOutcome::SkippedLocked`] with pending
    /// kept.
    pub fn save(&mut self) -> io::Result<SaveOutcome> {
        let Some(path) = self.path.clone() else {
            self.pending_ast.clear();
            self.pending_lower.clear();
            return Ok(SaveOutcome::Written);
        };
        // An insert indexes the log before it queues anything, so an
        // unindexed store has nothing pending.
        let Some(index) = &self.index else {
            return Ok(SaveOutcome::Written);
        };
        if self.pending_len() == 0
            && !index.needs_rewrite
            && index.file_bytes <= self.retention.max_bytes
        {
            return Ok(SaveOutcome::Written);
        }
        match path.parent() {
            Some(dir) if dir.as_os_str().is_empty() || dir.is_dir() => {}
            _ => return Ok(SaveOutcome::SkippedLocked),
        }
        let Some(_lock) = StoreLock::acquire(&path)? else {
            return Ok(SaveOutcome::SkippedLocked);
        };
        let pending_bytes: u64 = self
            .pending_ast
            .iter()
            .map(|p| (4 + AST_FIXED + p.blob.len() + 4) as u64)
            .chain(
                self.pending_lower
                    .iter()
                    .map(|p| (4 + LOWER_FIXED + p.blob.len() + 4) as u64),
            )
            .sum();
        let compact = index.needs_rewrite
            || !path.exists()
            || index.file_bytes + pending_bytes > self.retention.max_bytes
            || index.live_bytes * 2 < index.file_bytes;
        let t = self.tel.as_ref().map(|_| Instant::now());
        if compact {
            self.rewrite(&path)?;
        } else {
            self.append(&path)?;
        }
        if let (Some(tel), Some(t)) = (&self.tel, t) {
            tel.save_seconds.observe_seconds(t.elapsed().as_secs_f64());
        }
        Ok(SaveOutcome::Written)
    }

    fn append(&mut self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::new();
        let base = fs::metadata(path)?.len();
        let mut new_ast = Vec::new();
        let mut new_lower = Vec::new();
        for p in &self.pending_ast {
            let off = base + buf.len() as u64;
            let rec = encode_ast(&p.key, p.cost, &p.blob);
            new_ast.push((p.key, disk_at(off, rec.len(), AST_FIXED, p.cost)));
            buf.extend_from_slice(&rec);
        }
        for p in &self.pending_lower {
            let off = base + buf.len() as u64;
            let rec = encode_lower(&p.key, p.cost, &p.blob);
            new_lower.push((p.key, disk_at(off, rec.len(), LOWER_FIXED, p.cost)));
            buf.extend_from_slice(&rec);
        }
        let mut file = fs::OpenOptions::new().append(true).open(path)?;
        io::Write::write_all(&mut file, &buf)?;
        let index = self.index();
        for (k, a) in new_ast {
            index.live_bytes += u64::from(a.record_len);
            index.ast.insert(k, a);
        }
        for (k, a) in new_lower {
            index.live_bytes += u64::from(a.record_len);
            index.lower.insert(k, a);
        }
        index.file_bytes = base + buf.len() as u64;
        self.pending_ast.clear();
        self.pending_lower.clear();
        Ok(())
    }

    /// Rewrite the whole log applying retention. The caller holds the
    /// [`StoreLock`], and the log is re-read under it: this store's
    /// index may predate artifacts another writer appended since, and
    /// those must survive (the fitness shards' merge rule). Candidates
    /// are that fresh read's verified records — copied out of the one
    /// buffer — plus pending. Survivor order (and therefore eviction)
    /// is deterministic: most expensive first, ties broken by key.
    fn rewrite(&mut self, path: &Path) -> io::Result<()> {
        let disk_bytes = fs::read(path).unwrap_or_default();
        let mut disk = LogIndex::parse(&disk_bytes);
        // Records below the retention floor are evicted outright.
        let min_cost = self.retention.min_stage_seconds;
        disk.ast.retain(|_, at| at.cost >= min_cost);
        disk.lower.retain(|_, at| at.cost >= min_cost);
        // Pending artifacts another writer already persisted are dropped:
        // the disk copy is the same artifact.
        let pending: Vec<(f64, Vec<u8>)> = self
            .pending_ast
            .iter()
            .filter(|p| !disk.ast.contains_key(&p.key))
            .map(|p| (p.cost, encode_ast(&p.key, p.cost, &p.blob)))
            .chain(
                self.pending_lower
                    .iter()
                    .filter(|p| !disk.lower.contains_key(&p.key))
                    .map(|p| (p.cost, encode_lower(&p.key, p.cost, &p.blob))),
            )
            .collect();
        // (cost, encoded record): records are position-free, so disk
        // survivors are copied verbatim out of the one read.
        let mut candidates: Vec<(f64, &[u8])> = disk
            .ast
            .values()
            .chain(disk.lower.values())
            .map(|at| {
                let start = at.record_off as usize;
                (at.cost, &disk_bytes[start..start + at.record_len as usize])
            })
            .chain(pending.iter().map(|(cost, rec)| (*cost, rec.as_slice())))
            .collect();
        // Most expensive first; eviction truncates the cheap tail.
        candidates.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| record_key(a.1).cmp(record_key(b.1)))
        });

        let mut buf = Vec::with_capacity(ARTIFACT_HEADER_LEN);
        buf.extend_from_slice(&ARTIFACT_MAGIC);
        buf.put_u32_le(ARTIFACT_VERSION);
        let mut fresh = LogIndex::default();
        for (_, rec) in candidates {
            if (buf.len() + rec.len()) as u64 > self.retention.max_bytes
                && buf.len() > ARTIFACT_HEADER_LEN
            {
                break; // budget reached: everything cheaper is evicted
            }
            let _ = fresh.index_record(buf.len() as u64, &rec[4..rec.len() - 4]);
            buf.extend_from_slice(rec);
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &buf)?;
        fs::rename(&tmp, path)?;
        fresh.file_bytes = buf.len() as u64;
        fresh.live_bytes = (buf.len() - ARTIFACT_HEADER_LEN) as u64;
        fresh.report = self.index().report;
        self.index = Some(fresh);
        self.pending_ast.clear();
        self.pending_lower.clear();
        Ok(())
    }
}

fn disk_at(record_off: u64, record_len: usize, fixed: usize, cost: f64) -> DiskArtifact {
    DiskArtifact {
        record_off,
        record_len: record_len as u32,
        blob_off: record_off + 4 + fixed as u64,
        blob_len: (record_len - 4 - fixed - 4) as u32,
        cost,
    }
}

/// The tag + key prefix of an encoded record's payload, read in place:
/// [`ast_sort_key`] or [`lower_sort_key`] of the record's key.
fn record_key(rec: &[u8]) -> &[u8] {
    let fixed = if rec[4] == TAG_AST {
        AST_FIXED
    } else {
        LOWER_FIXED
    };
    &rec[4..4 + fixed - 8]
}

/// The exact tag + key prefix of an AST record's payload — both the
/// deterministic sort key for eviction and the identity `fetch` checks.
fn ast_sort_key(k: &AstArtifactKey) -> Vec<u8> {
    let mut v = vec![TAG_AST];
    v.extend_from_slice(&k.body_hash.to_le_bytes());
    v.push(k.compiler);
    v.extend_from_slice(&((k.ast_digest >> 64) as u64).to_le_bytes());
    v.extend_from_slice(&(k.ast_digest as u64).to_le_bytes());
    v
}

/// Lower-record half of [`ast_sort_key`], same contract.
fn lower_sort_key(k: &LowerArtifactKey) -> Vec<u8> {
    let mut v = vec![TAG_LOWER];
    v.extend_from_slice(&k.body_hash.to_le_bytes());
    v.push(k.compiler);
    v.push(k.arch);
    v.extend_from_slice(&((k.ast_digest >> 64) as u64).to_le_bytes());
    v.extend_from_slice(&(k.ast_digest as u64).to_le_bytes());
    v.extend_from_slice(&((k.lower_digest >> 64) as u64).to_le_bytes());
    v.extend_from_slice(&(k.lower_digest as u64).to_le_bytes());
    v
}

fn encode_ast(key: &AstArtifactKey, cost: f64, blob: &[u8]) -> Vec<u8> {
    let p_len = AST_FIXED + blob.len();
    let mut rec = Vec::with_capacity(4 + p_len + 4);
    rec.put_u32_le(p_len as u32);
    rec.put_u8(TAG_AST);
    rec.put_u64_le(key.body_hash);
    rec.put_u8(key.compiler);
    rec.put_u64_le((key.ast_digest >> 64) as u64);
    rec.put_u64_le(key.ast_digest as u64);
    rec.put_u64_le(cost.to_bits());
    rec.put_slice(blob);
    let ck = checksum(&rec[4..]);
    rec.put_u32_le(ck);
    rec
}

fn encode_lower(key: &LowerArtifactKey, cost: f64, blob: &[u8]) -> Vec<u8> {
    let p_len = LOWER_FIXED + blob.len();
    let mut rec = Vec::with_capacity(4 + p_len + 4);
    rec.put_u32_le(p_len as u32);
    rec.put_u8(TAG_LOWER);
    rec.put_u64_le(key.body_hash);
    rec.put_u8(key.compiler);
    rec.put_u8(key.arch);
    rec.put_u64_le((key.ast_digest >> 64) as u64);
    rec.put_u64_le(key.ast_digest as u64);
    rec.put_u64_le((key.lower_digest >> 64) as u64);
    rec.put_u64_le(key.lower_digest as u64);
    rec.put_u64_le(cost.to_bits());
    rec.put_slice(blob);
    let ck = checksum(&rec[4..]);
    rec.put_u32_le(ck);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "bintuner_artifacts_{}_{}",
            std::process::id(),
            name
        ));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn akey(i: u64) -> AstArtifactKey {
        AstArtifactKey {
            body_hash: 0xB0D1 + i,
            compiler: 0,
            ast_digest: u128::from(i) << 64 | 0xA57,
        }
    }

    fn lkey(i: u64) -> LowerArtifactKey {
        LowerArtifactKey {
            body_hash: 0xB0D1 + i,
            compiler: 0,
            arch: 1,
            ast_digest: u128::from(i) << 64 | 0xA57,
            lower_digest: u128::from(i) << 64 | 0x10E4,
        }
    }

    fn blob(i: u64, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i as usize * 31 + j) as u8).collect()
    }

    #[test]
    fn round_trip_and_fetch_verification() {
        let dir = scratch_dir("round_trip");
        let mut store = ArtifactStore::load(&dir);
        assert!(store.report().missing);
        store.insert_ast(akey(1), 0.5, blob(1, 100));
        store.insert_lower(lkey(2), 1.5, blob(2, 200));
        // Pending artifacts are NOT queryable before save.
        assert!(!store.has_ast(&akey(1)));
        assert_eq!(store.save().unwrap(), SaveOutcome::Written);
        assert!(store.has_ast(&akey(1)));
        assert_eq!(store.fetch_ast(&akey(1)).unwrap(), blob(1, 100));

        let mut reloaded = ArtifactStore::load(&dir);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.report().valid_records, 2);
        assert_eq!(reloaded.fetch_ast(&akey(1)).unwrap(), blob(1, 100));
        assert_eq!(reloaded.fetch_lower(&lkey(2)).unwrap(), blob(2, 200));
        assert_eq!(reloaded.fetch_ast(&akey(9)), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_keeps_valid_prefix_and_fetch_survives_compaction_race() {
        let dir = scratch_dir("torn");
        let mut store = ArtifactStore::load(&dir);
        for i in 0..4 {
            store.insert_ast(akey(i), 1.0, blob(i, 64));
        }
        store.save().unwrap();
        let path = dir.join("artifacts.log");
        let bytes = fs::read(&path).unwrap();
        // Every truncation point loads a clean valid prefix.
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let mut s = ArtifactStore::load(&dir);
            assert!(s.len() <= 4);
            for i in 0..4 {
                if let Some(b) = s.fetch_ast(&akey(i)) {
                    assert_eq!(b, blob(i, 64));
                }
            }
        }
        fs::write(&path, &bytes).unwrap();

        // A fetch against a stale index (file rewritten underneath)
        // either returns verified bytes or None — never garbage. The
        // stale store indexes the log *before* the rewrite; indexed
        // lazily after it, it would see the new file and test nothing.
        let mut stale = ArtifactStore::load(&dir);
        assert_eq!(stale.len(), 4);
        let mut fresh = ArtifactStore::load(&dir).with_retention(ArtifactRetention {
            max_bytes: 200, // forces eviction + rewrite
            min_stage_seconds: 0.0,
        });
        fresh.insert_ast(akey(9), 5.0, blob(9, 64));
        fresh.save().unwrap();
        for i in 0..4 {
            if let Some(b) = stale.fetch_ast(&akey(i)) {
                assert_eq!(b, blob(i, 64));
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_evicts_cheapest_first_and_floors_by_cost() {
        let dir = scratch_dir("retention");
        let mut store = ArtifactStore::load(&dir).with_retention(ArtifactRetention {
            max_bytes: 3 * 200, // room for roughly two 200-byte blobs
            min_stage_seconds: 0.1,
        });
        store.insert_ast(akey(1), 0.01, blob(1, 200)); // below the floor: dropped
        store.insert_ast(akey(2), 9.0, blob(2, 200));
        store.insert_ast(akey(3), 4.0, blob(3, 200));
        store.insert_ast(akey(4), 1.0, blob(4, 200));
        store.save().unwrap();

        let mut got = ArtifactStore::load(&dir);
        assert!(!got.has_ast(&akey(1)), "sub-floor artifact persisted");
        assert!(got.has_ast(&akey(2)), "most expensive artifact evicted");
        assert!(
            !got.has_ast(&akey(4)) || got.has_ast(&akey(3)),
            "cheap survived while expensive evicted"
        );
        assert!(got.len() < 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_log_is_a_cold_start_and_heals_on_save() {
        let dir = scratch_dir("garbage");
        fs::write(dir.join("artifacts.log"), b"not an artifact log").unwrap();
        let mut store = ArtifactStore::load(&dir);
        assert!(store.is_empty());
        assert!(store.report().malformed_header);
        store.insert_ast(akey(1), 1.0, blob(1, 10));
        store.save().unwrap();
        let mut healed = ArtifactStore::load(&dir);
        assert!(!healed.report().malformed_header);
        assert_eq!(healed.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_reads_nothing_until_the_first_query() {
        let dir = scratch_dir("lazy_load");
        let mut filler = ArtifactStore::load(&dir);
        filler.insert_ast(akey(1), 1.0, blob(1, 64));
        filler.save().unwrap();

        let load_seconds = Arc::new(btel::Histogram::new());
        let mut store = ArtifactStore::load(&dir);
        store.set_telemetry(Arc::new(btel::Histogram::new()), load_seconds.clone());
        assert!(!store.is_indexed());
        assert_eq!(load_seconds.count(), 0);
        // Written after the load, before the first query: a store that
        // read at load time could not see it.
        let mut other = ArtifactStore::load(&dir);
        other.insert_lower(lkey(2), 1.0, blob(2, 64));
        other.save().unwrap();
        assert!(!store.is_indexed());

        assert!(store.has_lower(&lkey(2)));
        assert!(store.is_indexed());
        assert_eq!(store.fetch_ast(&akey(1)).unwrap(), blob(1, 64));
        assert_eq!(store.len(), 2);
        assert_eq!(store.report().valid_records, 2);
        assert_eq!(load_seconds.count(), 1, "the log is read once per store");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_with_nothing_pending_never_builds_the_index() {
        let dir = scratch_dir("lazy_save");
        let mut filler = ArtifactStore::load(&dir);
        for i in 0..3 {
            filler.insert_ast(akey(i), 1.0, blob(i, 64));
        }
        filler.save().unwrap();
        // A torn tail would make an indexed store rewrite on save.
        let path = dir.join("artifacts.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 5);
        fs::write(&path, &bytes).unwrap();

        let mut store = ArtifactStore::load(&dir).with_retention(ArtifactRetention {
            max_bytes: 64, // over budget too
            min_stage_seconds: 0.0,
        });
        assert_eq!(store.save().unwrap(), SaveOutcome::Written);
        assert!(!store.is_indexed());
        assert_eq!(
            fs::read(&path).unwrap(),
            bytes,
            "an untouched store writes nothing"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_keeps_artifacts_another_writer_appended() {
        // Record sizes: AST = 42 + blob, lower = 59 + blob; header 8.
        // Survivors go most expensive first: s1 (4.0) and s2 (3.0) end
        // at byte 220, X (2.0) at 343, and the big cheap Y (1.0) never
        // fits below 585.
        for budget in [200, 342, 343, 400, 461, 1000] {
            let dir = scratch_dir(&format!("two_writers_{budget}"));
            let mut seed = ArtifactStore::load(&dir);
            seed.insert_ast(akey(1), 4.0, blob(1, 64));
            seed.insert_ast(akey(2), 3.0, blob(2, 64));
            seed.save().unwrap();

            let retention = ArtifactRetention {
                max_bytes: budget,
                min_stage_seconds: 0.0,
            };
            let mut a = ArtifactStore::load(&dir).with_retention(retention);
            assert_eq!(a.len(), 2, "A indexes before B writes");
            let mut b = ArtifactStore::load(&dir);
            b.insert_lower(lkey(3), 2.0, blob(3, 64)); // X
            b.save().unwrap();
            // In A's stale view the log is 220 bytes; Y pushes it past
            // every budget below 462, forcing an evicting rewrite.
            a.insert_ast(akey(4), 1.0, blob(4, 200));
            a.save().unwrap();

            let mut got = ArtifactStore::load(&dir);
            assert_eq!(
                got.has_lower(&lkey(3)),
                budget >= 343,
                "budget {budget}: X must survive exactly when it fits"
            );
            if budget >= 343 {
                assert_eq!(got.fetch_lower(&lkey(3)).unwrap(), blob(3, 64));
            }
            assert!(got.has_ast(&akey(1)), "budget {budget}");
            assert_eq!(got.has_ast(&akey(4)), budget >= 462, "budget {budget}");
            assert!(!got.report().malformed_header && got.report().dropped_bytes == 0);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_parent_directory_degrades_to_a_skip() {
        let dir = std::env::temp_dir().join(format!(
            "bintuner_artifacts_{}_missing/never_created",
            std::process::id()
        ));
        let mut store = ArtifactStore::load(&dir);
        store.insert_ast(akey(1), 1.0, blob(1, 10));
        assert_eq!(store.save().unwrap(), SaveOutcome::SkippedLocked);
        assert_eq!(store.pending_len(), 1, "pending kept for a retry");
    }
}
