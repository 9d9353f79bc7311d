//! Persistent cross-run fitness store — paper Figure 4's server-side
//! database, "stored for future exploration".
//!
//! BinTuner records every compiled variant's fitness in a database so
//! that re-tuning the same target starts warm. Since format version 4
//! that database is a **sharded directory**, not a single file:
//!
//! * **Key** — `(module content hash, compiler profile, arch,
//!   effect-config digest)`: exactly the tuple the emitted binary is a
//!   pure function of. All components come from `minicc`'s stable
//!   canonical hashing ([`minicc::StableHasher`]), never from `std`'s
//!   process-seeded hashers, so keys survive restarts.
//! * **Sharded layout** — the store path is a directory holding a
//!   checksummed `manifest` (shard count + generation) and
//!   [`DEFAULT_SHARD_COUNT`] append-only `shard-NN.log` files. A key
//!   routes to its shard by a stable hash ([`shard_for`]); each shard
//!   carries its own compact in-memory index, loaded lazily on first
//!   touch, and its own [`StoreLock`], so compacting one shard never
//!   stops readers or writers of any other shard.
//! * **Minable records** — besides the fitness itself, each record
//!   carries the *representative flag vector* that produced it (as a
//!   fixed-width bitmap, [`FlagBits`]), and the store additionally keeps
//!   one [`ModuleFeatures`] record per module. Together these are what
//!   `bintuner::priors` mines into per-flag potency priors and
//!   cross-module config transfer — the paper's "future exploration" —
//!   without needing the original sources at mining time.
//! * **Append-only logs + per-shard compaction** — each run appends only
//!   the configurations it actually compiled, as fixed-size checksummed
//!   records, one `write_all` per touched shard. When dead records
//!   dominate a shard, that shard alone is compacted: its live set is
//!   rewritten to a sibling temp file and atomically `rename`d — after
//!   re-reading the log under the shard lock, so records appended by a
//!   concurrent process are merged, never lost.
//! * **Corruption tolerance** — loading never fails and never panics: a
//!   bad magic/version yields a clean cold start (rewritten wholesale on
//!   the next save), a truncated or checksum-corrupt shard tail drops
//!   exactly the damaged suffix, and a damaged manifest is rebuilt from
//!   the shard files themselves. A torn append therefore loses at most
//!   the interrupted run's new entries in one shard.
//! * **Creation** — a missing path, or foreign content at it (any plain
//!   file, including a store written before format 4), is a cold start.
//!   The first save with records to write creates the directory and its
//!   manifest under a whole-store lock, replacing the foreign content,
//!   then saves shard by shard like any other save.
//! * **Generations** — every fitness record carries the store's
//!   monotonic generation at insertion time; the manifest records the
//!   generation the *next* load should stamp with. One load→save cycle
//!   is one generation, so `store.generation() − record.generation` is a
//!   record's age in runs — the input to the prior miner's age decay
//!   (`PriorConfig::decay_half_life`). The manifest never moves
//!   backwards, even when two store values save into one directory.
//! * **Binary blobs** — the two binaries every job returns (its `-O0`
//!   baseline and its winner) are kept as one checksummed file each,
//!   `binaries/<key hex>`, under the fitness key the binary is a pure
//!   function of ([`FitnessStore::binary`],
//!   [`FitnessStore::insert_binary`]). They are a cache: a missing or
//!   damaged blob reads as absent, the caller compiles, and the next
//!   save replaces the file. Saves write them after the fitness shards
//!   (tmp + `rename`, no lock) and delete the oldest once the directory
//!   passes 64 MiB, the artifact log's default budget.
//!
//! The on-disk encoding is hand-rolled little-endian via the vendored
//! [`bytes::BufMut`] surface (the vendored `serde` is derive-markers
//! only — it has no serialization runtime), and is versioned: bump
//! [`FORMAT_VERSION`] whenever the record layout *or* any canonical hash
//! encoding changes, so stale stores degrade to a cold start instead of
//! being misread.
//!
//! Concurrency: one store value is owned by one tuning run at a time
//! (the engine wraps it in a `Mutex`), and *within* a service run the
//! evaluation server is the single writer per shard — clients only ship
//! results back. Store values sharing one `cache_path` — in separate
//! processes, or in threads of one process such as the daemon's
//! runners — are coordinated per shard by advisory lock files
//! ([`StoreLock`]): the loser of a race degrades to skipping that
//! shard's save ([`SaveOutcome::SkippedLocked`], surfaced through
//! `PersistSummary`, pending kept for a retry), never to interleaved
//! writes.

mod artifact;
mod binaries;
mod index;
mod lock;
mod shard;

pub use artifact::{
    ArtifactRetention, ArtifactStore, AstArtifactKey, LowerArtifactKey, PendingArtifacts,
};
pub use lock::StoreLock;
pub use shard::{shard_for, shard_for_module};

use binrep::{Arch, Binary, Cursor};
use index::ShardIndex;
use minicc::fnv1a32 as checksum;
use minicc::{CompilerKind, ModuleFeatures};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File magic: `BTFS` (BinTuner Fitness Store).
pub const MAGIC: [u8; 4] = *b"BTFS";

/// On-disk format version. Covers the directory/record layout *and* the
/// canonical encodings behind [`minicc::ast::Module::content_hash`],
/// [`minicc::EffectConfig::stable_digest`], and the
/// [`minicc::ModuleFeatures`] component meanings — a mismatch is a clean
/// cold start, never a misread.
pub const FORMAT_VERSION: u32 = 4;

/// Widest flag vector a stored bitmap can represent. Both modelled
/// profiles are well under this; a hypothetical wider profile stores an
/// empty bitmap (the fitness entry itself is unaffected — only prior
/// mining skips it).
pub const MAX_STORED_FLAGS: usize = 192;

pub(crate) const FLAG_BYTES: usize = MAX_STORED_FLAGS / 8;

/// Shards in a newly created store. Existing directories keep whatever
/// geometry their manifest records.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// `manifest` file: magic + version + shard count + generation +
/// checksum, each u32 little-endian after the 4 magic bytes.
const MANIFEST_LEN: usize = 20;

/// The cache key a fitness result is filed under.
///
/// `compiler` and `arch` are stored as stable one-byte tags (see
/// [`CompilerKind::stable_id`]) rather than enums, so records written by
/// a future version with more variants load as never-matching keys
/// instead of failing to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// [`minicc::ast::Module::content_hash`] of the tuned module.
    pub module_hash: u64,
    /// [`CompilerKind::stable_id`] tag.
    pub compiler: u8,
    /// [`Arch::tag`] of the target.
    pub arch: u8,
    /// [`minicc::EffectConfig::stable_digest`] of the resolved config.
    pub effect_digest: u128,
}

impl StoreKey {
    /// Build a key from the typed components.
    pub fn new(module_hash: u64, compiler: CompilerKind, arch: Arch, effect_digest: u128) -> Self {
        StoreKey {
            module_hash,
            compiler: compiler.stable_id(),
            arch: arch.tag(),
            effect_digest,
        }
    }
}

/// A fixed-width bitmap of a flag vector — the minable "which flags were
/// on" half of a stored fitness record.
///
/// Width-checked: the bitmap remembers how many flags the source vector
/// had, so a prior miner can reject records written against a different
/// profile width instead of misreading them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FlagBits {
    pub(crate) n: u16,
    pub(crate) bits: [u8; FLAG_BYTES],
}

impl FlagBits {
    /// The empty bitmap (no flag vector recorded).
    pub fn empty() -> FlagBits {
        FlagBits {
            n: 0,
            bits: [0; FLAG_BYTES],
        }
    }

    /// Capture a flag vector. Vectors wider than [`MAX_STORED_FLAGS`]
    /// cannot be represented and yield the empty bitmap (the caller's
    /// fitness entry is still stored; only mining skips it).
    pub fn from_bools(flags: &[bool]) -> FlagBits {
        if flags.is_empty() || flags.len() > MAX_STORED_FLAGS {
            return FlagBits::empty();
        }
        let mut out = FlagBits {
            n: flags.len() as u16,
            bits: [0; FLAG_BYTES],
        };
        for (i, &on) in flags.iter().enumerate() {
            if on {
                out.bits[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Number of flags the source vector had (0 = nothing recorded).
    pub fn len(&self) -> usize {
        usize::from(self.n)
    }

    /// Whether no flag vector was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether flag `i` was enabled (false out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len() && self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Reconstruct the flag vector.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

impl std::fmt::Debug for FlagBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlagBits({}/{} on)",
            (0..self.len()).filter(|&i| self.get(i)).count(),
            self.len()
        )
    }
}

/// One persisted fitness result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredFitness {
    /// NCD against the `-O0` baseline (bit-exact as computed), or the
    /// failure penalty when `failed`.
    pub fitness: f64,
    /// Whether the compile failed constraint checking.
    pub failed: bool,
    /// Representative flag vector that produced this result (empty when
    /// unknown, e.g. records written before the vector was captured).
    pub flags: FlagBits,
    /// Store generation at insertion time (stamped by
    /// [`FitnessStore::insert`]; the value supplied by the caller is
    /// overwritten). Age in runs is `store.generation() − generation` —
    /// the prior miner's decay input.
    pub generation: u32,
}

impl StoredFitness {
    /// A result with no recorded flag vector (generation stamped at
    /// insertion).
    pub fn new(fitness: f64, failed: bool) -> StoredFitness {
        StoredFitness {
            fitness,
            failed,
            flags: FlagBits::empty(),
            generation: 0,
        }
    }
}

/// What [`FitnessStore::load`] found on disk — telemetry for warm-start
/// reporting and the recovery tests.
///
/// With the lazy sharded layout the counters grow as shards are first
/// touched; forcing a full load (e.g. [`FitnessStore::len`]) makes the
/// report whole-store accurate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records decoded and kept (fitness and module-features records).
    pub valid_records: usize,
    /// Trailing bytes dropped (truncation or checksum corruption).
    pub dropped_bytes: usize,
    /// A file carried a different [`FORMAT_VERSION`] — cold start for
    /// its contents.
    pub version_mismatch: bool,
    /// A header (store manifest, shard log, or a plain file at the store
    /// path) was not ours — cold start for its contents.
    pub malformed_header: bool,
    /// Nothing existed at the path — clean first run.
    pub missing: bool,
}

/// A record queued for the next save, in insertion order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PendingRecord {
    Fitness(StoreKey, StoredFitness),
    Features(u64, ModuleFeatures),
}

/// What [`FitnessStore::save`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveOutcome {
    /// The store on disk is current (records written, or nothing was
    /// pending, or the store has no backing file).
    Written,
    /// Another live holder (a process, or another thread of this one)
    /// held an advisory lock for at least one shard (or the whole store,
    /// during creation): that part of the save was skipped and its
    /// pending entries remain queued for a retry. Only the warm start
    /// for future runs is deferred — never an error, per the
    /// degrade-don't-panic contract.
    SkippedLocked,
}

/// What the path held when the store was loaded — drives how `save`
/// reaches the sharded layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// No backing path: saves are no-ops.
    Memory,
    /// No store directory yet: the path was missing or held foreign
    /// content (cold start). The first save with records creates it.
    Uncreated,
    /// A v4 store directory: the steady state. Shards load lazily.
    Sharded,
}

/// Telemetry handles for the persistent store. Installed via
/// [`FitnessStore::set_telemetry`]; absent (the default) means the hard
/// Off-mode purity contract — no clock reads, no telemetry state, byte-
/// identical on-disk behavior.
#[derive(Debug, Clone)]
pub struct StoreTelemetry {
    /// Wall time of each per-shard append or rewrite during
    /// [`FitnessStore::save`].
    pub shard_save_seconds: std::sync::Arc<btel::Histogram>,
    /// Wall time of each per-shard compaction rewrite.
    pub compact_seconds: std::sync::Arc<btel::Histogram>,
    /// Shard saves/compactions skipped because another live holder held
    /// the advisory lock (lock contention; pending records are retried).
    pub lock_skips: std::sync::Arc<btel::Counter>,
}

impl StoreTelemetry {
    /// Declare the store's metric families in `registry` and return the
    /// handles.
    pub fn from_registry(registry: &btel::Registry) -> StoreTelemetry {
        StoreTelemetry {
            shard_save_seconds: registry.histogram(
                "bintuner_store_shard_save_seconds",
                "Wall time of each per-shard append/rewrite during FitnessStore::save.",
            ),
            compact_seconds: registry.histogram(
                "bintuner_store_compact_seconds",
                "Wall time of each per-shard compaction rewrite.",
            ),
            lock_skips: registry.counter(
                "bintuner_store_lock_skips_total",
                "Shard saves/compactions skipped under advisory-lock contention.",
            ),
        }
    }
}

/// A disk-backed map from [`StoreKey`] to [`StoredFitness`], plus one
/// [`ModuleFeatures`] entry per module for prior mining.
///
/// All mutation is in-memory until [`FitnessStore::save`]; the engine
/// inserts fresh results as it compiles, and the tuner saves once at the
/// end of a run. Lookups take `&mut self` because the shard an untouched
/// key routes to is loaded on demand.
#[derive(Debug)]
pub struct FitnessStore {
    path: Option<PathBuf>,
    layout: Layout,
    shard_count: usize,
    /// One lazily-filled slot per shard. Non-`Sharded` layouts are fully
    /// materialized at load, so every slot is `Some` from the start.
    shards: Vec<Option<ShardIndex>>,
    /// Monotonic generation stamped on inserts, fixed for this store
    /// value's lifetime.
    generation: u32,
    /// Generation currently recorded in the on-disk manifest.
    manifest_gen: u32,
    /// The manifest must be rewritten even if the generation is
    /// unchanged (recovered from corruption).
    manifest_dirty: bool,
    report: LoadReport,
    /// Binary blobs queued for the next save: key and whole file bytes.
    pending_binaries: Vec<(StoreKey, Vec<u8>)>,
    /// Save/compaction timing handles; `None` (the default) takes no
    /// telemetry path at all.
    tel: Option<StoreTelemetry>,
}

fn full_slots(n: usize) -> Vec<Option<ShardIndex>> {
    (0..n).map(|_| Some(ShardIndex::default())).collect()
}

impl FitnessStore {
    /// A store with no backing file: [`FitnessStore::save`] is a no-op.
    /// Useful for tests and for engines that only want in-run sharing.
    pub fn in_memory() -> FitnessStore {
        FitnessStore {
            path: None,
            layout: Layout::Memory,
            shard_count: DEFAULT_SHARD_COUNT,
            shards: full_slots(DEFAULT_SHARD_COUNT),
            generation: 0,
            manifest_gen: 0,
            manifest_dirty: false,
            report: LoadReport::default(),
            pending_binaries: Vec::new(),
            tel: None,
        }
    }

    /// Load a store from `path` with the default shard geometry. Never
    /// fails: a missing path is a clean first run, a plain file (foreign
    /// bytes, or a store from before format 4) is a cold start replaced
    /// on the next save, and a damaged shard tail is dropped while the
    /// valid prefix is kept. Inspect [`FitnessStore::report`] for what
    /// happened.
    pub fn load(path: impl Into<PathBuf>) -> FitnessStore {
        FitnessStore::load_with_shard_count(path, DEFAULT_SHARD_COUNT)
    }

    /// [`FitnessStore::load`] with an explicit shard count for stores
    /// created by this call. An existing directory keeps its manifest's
    /// geometry; the count only shapes new stores.
    pub fn load_with_shard_count(path: impl Into<PathBuf>, shard_count: usize) -> FitnessStore {
        let path = path.into();
        let shard_count = shard_count.clamp(1, u16::MAX as usize);
        let mut store = FitnessStore {
            path: Some(path.clone()),
            layout: Layout::Uncreated,
            shard_count,
            shards: full_slots(shard_count),
            generation: 0,
            manifest_gen: 0,
            manifest_dirty: false,
            report: LoadReport::default(),
            pending_binaries: Vec::new(),
            tel: None,
        };
        if path.is_dir() {
            store.load_dir(&path);
            return store;
        }
        match fs::read(&path) {
            Err(_) => store.report.missing = true,
            Ok(bytes) => {
                // A v4 store is a directory, so any plain file here is a
                // cold start; the report only says whether it looks like
                // a store of another format version.
                let other_version = bytes.len() >= 8
                    && bytes[..4] == MAGIC
                    && bytes[4..8] != FORMAT_VERSION.to_le_bytes();
                store.report.version_mismatch = other_version;
                store.report.malformed_header = !other_version;
                store.report.dropped_bytes = bytes.len();
            }
        }
        store
    }

    /// Open an existing v4 directory: read the manifest, defer every
    /// shard until first touch.
    fn load_dir(&mut self, dir: &Path) {
        self.layout = Layout::Sharded;
        match read_manifest(dir) {
            Some((count, generation)) => {
                self.shard_count = count;
                self.generation = generation;
                self.manifest_gen = generation;
                self.shards = (0..count).map(|_| None).collect();
            }
            None => self.recover_dir(dir),
        }
    }

    /// A directory without a readable manifest: rebuild the geometry
    /// from the shard files themselves, eagerly, and queue a manifest
    /// rewrite. Loses nothing but the generation counter's exact value
    /// (recomputed as `max(stored) + 1`).
    fn recover_dir(&mut self, dir: &Path) {
        self.report.malformed_header = true;
        self.manifest_dirty = true;
        let mut max_idx: Option<usize> = None;
        let mut header_count: Option<usize> = None;
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(idx) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("shard-"))
                    .and_then(|n| n.strip_suffix(".log"))
                    .and_then(|n| n.parse::<usize>().ok())
                else {
                    continue;
                };
                max_idx = Some(max_idx.map_or(idx, |m| m.max(idx)));
                if header_count.is_none() {
                    header_count = fs::read(entry.path())
                        .ok()
                        .and_then(|bytes| shard::header_shard_count(&bytes));
                }
            }
        }
        self.shard_count = match (header_count, max_idx) {
            (Some(c), Some(m)) if c > m => c,
            (_, Some(m)) => m + 1,
            _ => self.shard_count,
        }
        .clamp(1, u16::MAX as usize);
        self.layout = Layout::Sharded;
        self.shards = (0..self.shard_count).map(|_| None).collect();
        for idx in 0..self.shard_count {
            self.ensure_shard(idx);
        }
        self.generation = self
            .shards
            .iter()
            .flatten()
            .flat_map(|s| s.entries.values())
            .map(|v| v.generation)
            .max()
            .map_or(0, |g| g.saturating_add(1));
        self.manifest_gen = self.generation;
    }

    /// Materialize shard `idx`, folding its load telemetry into the
    /// store-wide report.
    fn ensure_shard(&mut self, idx: usize) -> &mut ShardIndex {
        if self.shards[idx].is_none() {
            let loaded = match &self.path {
                Some(dir) if self.layout == Layout::Sharded => {
                    let s = shard::load_shard(dir, idx, self.shard_count);
                    self.report.valid_records += s.report.valid_records;
                    self.report.dropped_bytes += s.report.dropped_bytes;
                    self.report.version_mismatch |= s.report.version_mismatch;
                    self.report.malformed_header |= s.report.malformed_header;
                    // A missing shard file is normal (shards materialize
                    // on first write) — not a store-wide `missing`.
                    s
                }
                _ => ShardIndex::default(),
            };
            self.shards[idx] = Some(loaded);
        }
        self.shards[idx].as_mut().unwrap()
    }

    fn ensure_all(&mut self) {
        for idx in 0..self.shard_count {
            self.ensure_shard(idx);
        }
    }

    /// The backing path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// What loading has found on disk so far (shards count in when first
    /// touched; see [`LoadReport`]).
    pub fn report(&self) -> LoadReport {
        self.report
    }

    /// The store's shard geometry.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// How many shard indices are currently materialized in memory —
    /// observability for the lazy-loading tests.
    pub fn shards_loaded(&self) -> usize {
        self.shards.iter().filter(|s| s.is_some()).count()
    }

    /// Live fitness entries per shard (forces a full load) — diagnostics
    /// for the shard-assignment tests.
    pub fn shard_entry_counts(&mut self) -> Vec<usize> {
        self.ensure_all();
        self.shards
            .iter()
            .flatten()
            .map(|s| s.entries.len())
            .collect()
    }

    /// Number of live fitness entries (module-features records are
    /// bookkeeping and not counted). Forces a full load.
    pub fn len(&mut self) -> usize {
        self.ensure_all();
        self.shards.iter().flatten().map(|s| s.entries.len()).sum()
    }

    /// Whether the store holds no fitness entries (forces a full load).
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Fitness entries inserted since the last [`FitnessStore::save`]
    /// (module-features records piggyback on the save but are not
    /// counted — they are identity metadata, not results).
    pub fn pending_len(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(ShardIndex::pending_fitness)
            .sum()
    }

    /// Look up a persisted result, materializing only the one shard the
    /// key routes to.
    pub fn get(&mut self, key: &StoreKey) -> Option<StoredFitness> {
        let idx = shard_for(key, self.shard_count);
        self.ensure_shard(idx).entries.get(key).copied()
    }

    /// All live fitness entries (mining input; arbitrary order —
    /// consumers that need determinism must sort). Forces a full load.
    pub fn entries(&mut self) -> Vec<(StoreKey, StoredFitness)> {
        self.ensure_all();
        self.shards
            .iter()
            .flatten()
            .flat_map(|s| s.entries.iter().map(|(&k, &v)| (k, v)))
            .collect()
    }

    /// The generation stamped on new inserts (0 for a fresh or empty
    /// store; advances by one per load→save cycle).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Install save/compaction timing handles. Without this call the
    /// store takes no telemetry path at all (the Off-mode purity
    /// contract).
    pub fn set_telemetry(&mut self, tel: StoreTelemetry) {
        self.tel = Some(tel);
    }

    /// Insert (or overwrite) a result; queued for the next save and
    /// stamped with the current [`FitnessStore::generation`]. An insert
    /// whose fitness and failure bit match the stored value bit-for-bit
    /// is a no-op (the flag bitmap and generation are advisory
    /// metadata), so re-tuning a warm target never grows the log — and
    /// never refreshes record ages, keeping decay honest.
    pub fn insert(&mut self, key: StoreKey, value: StoredFitness) {
        let idx = shard_for(&key, self.shard_count);
        let generation = self.generation;
        let shard = self.ensure_shard(idx);
        if shard.is_noop_insert(&key, &value) {
            return;
        }
        let value = StoredFitness {
            generation,
            ..value
        };
        shard.entries.insert(key, value);
        shard.pending.push(PendingRecord::Fitness(key, value));
    }

    /// Record a module's shape features (queued for the next save;
    /// unchanged features are a no-op so warm re-runs never grow the
    /// log). The engine calls this once per run for the tuned module.
    pub fn record_module_features(&mut self, module_hash: u64, feats: ModuleFeatures) {
        let idx = shard_for_module(module_hash, self.shard_count);
        let shard = self.ensure_shard(idx);
        if shard.features.get(&module_hash) == Some(&feats) {
            return;
        }
        shard.features.insert(module_hash, feats);
        shard
            .pending
            .push(PendingRecord::Features(module_hash, feats));
    }

    /// A module's recorded shape features, if any (materializes one
    /// shard).
    pub fn module_features(&mut self, module_hash: u64) -> Option<ModuleFeatures> {
        let idx = shard_for_module(module_hash, self.shard_count);
        self.ensure_shard(idx).features.get(&module_hash).copied()
    }

    /// The binary filed under `key` (`binaries/<key hex>`), if the store
    /// directory holds an intact blob for it. A missing, torn, foreign
    /// or corrupt blob is `None`: blobs are a cache, so the caller
    /// compiles instead, and queues the result with
    /// [`FitnessStore::insert_binary`] to replace the file.
    pub fn binary(&self, key: &StoreKey) -> Option<Binary> {
        match (&self.path, self.layout) {
            (Some(dir), Layout::Sharded) => binaries::read(dir, key),
            _ => None,
        }
    }

    /// Queue `bin` as the binary filed under `key` for the next
    /// [`FitnessStore::save`]. `bin` must be what compiling the key's
    /// module under its effect config for its arch yields.
    pub fn insert_binary(&mut self, key: StoreKey, bin: &Binary) {
        if self.pending_binaries.iter().all(|(k, _)| *k != key) {
            self.pending_binaries
                .push((key, binaries::encode(&key, bin)));
        }
    }

    /// All modules with recorded features (arbitrary order — consumers
    /// that need determinism must sort). Forces a full load.
    pub fn modules_with_features(&mut self) -> Vec<(u64, ModuleFeatures)> {
        self.ensure_all();
        self.shards
            .iter()
            .flatten()
            .flat_map(|s| s.features.iter().map(|(&h, &f)| (h, f)))
            .collect()
    }

    /// Flush pending entries to disk.
    ///
    /// On a sharded store only the touched shards are written, each
    /// under its own advisory lock: the fast path is one appended
    /// `write_all` per shard, and a shard whose dead records dominate is
    /// compacted alone (re-read + merge under its lock, then an atomic
    /// tmp + `rename`). A shard whose lock another live holder has is
    /// *skipped* — [`SaveOutcome::SkippedLocked`], pending kept for a
    /// retry — rather than blocked on or corrupted.
    ///
    /// A store with no directory yet (missing path, or foreign content
    /// there) creates it on the first save that has records to write,
    /// under a whole-store lock.
    ///
    /// Pending binary blobs are written after the fitness shards, each
    /// through tmp + `rename` and without a lock (a blob is a pure
    /// function of its key), and `binaries/` is then pruned, oldest blob
    /// first, to 64 MiB.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the in-memory state is unchanged by a
    /// failed (or skipped) save, so it can be retried.
    pub fn save(&mut self) -> io::Result<SaveOutcome> {
        let Some(path) = self.path.clone() else {
            for shard in self.shards.iter_mut().flatten() {
                shard.pending.clear();
            }
            self.pending_binaries.clear();
            return Ok(SaveOutcome::Written);
        };
        if self.layout == Layout::Sharded {
            self.save_sharded(&path)
        } else {
            self.create(&path)
        }
    }

    /// First save of a store with no directory yet: create the directory
    /// and its manifest under the whole-store lock, then save shard by
    /// shard like any other save.
    ///
    /// A crash before the manifest lands leaves an empty directory or one
    /// holding only `manifest.tmp`; both load as a cold start (via
    /// `recover_dir`) and the next save completes them.
    fn create(&mut self, path: &Path) -> io::Result<SaveOutcome> {
        if self.shards.iter().flatten().all(|s| s.pending.is_empty())
            && self.pending_binaries.is_empty()
        {
            return Ok(SaveOutcome::Written); // nothing to create yet
        }
        let Some(lock) = StoreLock::acquire(path)? else {
            return Ok(SaveOutcome::SkippedLocked);
        };
        if path.is_dir() {
            // Another process created the store since this one loaded:
            // adopt its geometry (it may have been loaded with another
            // shard count) and save into it; per-shard saves merge.
            match read_manifest(path) {
                Some((count, generation)) => {
                    if count != self.shard_count {
                        self.reshard(count);
                    }
                    self.manifest_gen = generation;
                }
                None => self.manifest_dirty = true,
            }
        } else {
            if path.is_file() {
                fs::remove_file(path)?; // foreign content: replaced
            }
            fs::create_dir_all(path)?;
            write_manifest(path, self.shard_count, self.generation)?;
            self.manifest_gen = self.generation;
        }
        self.layout = Layout::Sharded;
        drop(lock); // `save_sharded` takes it again for the manifest
        self.save_sharded(path)
    }

    /// Re-route every in-memory record into a different shard geometry
    /// (only reached when adopting a directory another process created
    /// with a different shard count).
    fn reshard(&mut self, new_count: usize) {
        let mut fresh: Vec<ShardIndex> = (0..new_count).map(|_| ShardIndex::default()).collect();
        for shard in self.shards.drain(..).flatten() {
            for (key, value) in shard.entries {
                fresh[shard_for(&key, new_count)].entries.insert(key, value);
            }
            for (hash, feats) in shard.features {
                fresh[shard_for_module(hash, new_count)]
                    .features
                    .insert(hash, feats);
            }
            for rec in shard.pending {
                let idx = match &rec {
                    PendingRecord::Fitness(k, _) => shard_for(k, new_count),
                    PendingRecord::Features(h, _) => shard_for_module(*h, new_count),
                };
                fresh[idx].pending.push(rec);
            }
        }
        self.shard_count = new_count;
        self.shards = fresh.into_iter().map(Some).collect();
    }

    /// Steady-state save: write each touched shard under its own lock.
    fn save_sharded(&mut self, dir: &Path) -> io::Result<SaveOutcome> {
        let mut skipped = false;
        let mut fitness_written = false;
        for idx in 0..self.shard_count {
            let count = self.shard_count;
            let Some(shard) = self.shards[idx].as_mut() else {
                continue; // never touched: nothing pending by definition
            };
            if shard.pending.is_empty() && !shard.needs_rewrite {
                continue;
            }
            let Some(_lock) = StoreLock::acquire(&shard::shard_path(dir, idx))? else {
                skipped = true; // pending kept; retried on the next save
                if let Some(tel) = &self.tel {
                    tel.lock_skips.inc();
                }
                continue;
            };
            fitness_written |= shard.pending_fitness() > 0;
            match &self.tel {
                None => shard::save_shard(dir, idx, count, shard, false)?,
                Some(tel) => {
                    let t = std::time::Instant::now();
                    shard::save_shard(dir, idx, count, shard, false)?;
                    tel.shard_save_seconds
                        .observe_seconds(t.elapsed().as_secs_f64());
                }
            }
        }
        let manifest_gen = if fitness_written {
            self.generation.saturating_add(1)
        } else {
            self.manifest_gen
        };
        if manifest_gen != self.manifest_gen || self.manifest_dirty {
            // The manifest itself is guarded by the whole-store lock; a
            // loss here only defers the generation bump, never records.
            match StoreLock::acquire(dir)? {
                Some(_lock) => {
                    // Another store value may have advanced the manifest
                    // since this one loaded. Never move it backwards: the
                    // next load would stamp a generation records carry.
                    let manifest_gen = read_manifest(dir)
                        .map_or(manifest_gen, |(_, on_disk)| on_disk.max(manifest_gen));
                    write_manifest(dir, self.shard_count, manifest_gen)?;
                    self.manifest_gen = manifest_gen;
                    self.manifest_dirty = false;
                }
                None => {
                    self.manifest_dirty = true;
                    skipped = true;
                }
            }
        }
        binaries::write_pending(dir, &mut self.pending_binaries)?;
        Ok(if skipped {
            SaveOutcome::SkippedLocked
        } else {
            SaveOutcome::Written
        })
    }

    /// Compact every shard (each under its own lock; contended shards
    /// are skipped). A store with no directory yet is saved (created)
    /// first.
    pub fn compact(&mut self) -> io::Result<SaveOutcome> {
        if self.layout != Layout::Sharded {
            if self.save()? == SaveOutcome::SkippedLocked {
                return Ok(SaveOutcome::SkippedLocked);
            }
            if self.layout != Layout::Sharded {
                return Ok(SaveOutcome::Written); // in memory, or nothing to create
            }
        }
        let mut skipped = false;
        for idx in 0..self.shard_count {
            if self.compact_shard(idx)? == SaveOutcome::SkippedLocked {
                skipped = true;
            }
        }
        Ok(if skipped {
            SaveOutcome::SkippedLocked
        } else {
            SaveOutcome::Written
        })
    }

    /// Compact one shard in place: re-read + merge under its lock, write
    /// the live set to a temp file, atomically rename. Readers and
    /// writers of every *other* shard are untouched — that independence
    /// is the point of the sharded layout (and what the torture harness
    /// pins down).
    pub fn compact_shard(&mut self, idx: usize) -> io::Result<SaveOutcome> {
        let Some(dir) = self.path.clone() else {
            return Ok(SaveOutcome::Written);
        };
        if self.layout != Layout::Sharded || idx >= self.shard_count {
            return Ok(SaveOutcome::Written);
        }
        let count = self.shard_count;
        // Cloned up front (cheap Arc bumps): `ensure_shard` holds a
        // mutable borrow of `self` across the write below.
        let tel = self.tel.clone();
        let shard = self.ensure_shard(idx);
        if shard.live() == 0 && shard.pending.is_empty() && !shard::shard_path(&dir, idx).exists() {
            return Ok(SaveOutcome::Written);
        }
        let Some(_lock) = StoreLock::acquire(&shard::shard_path(&dir, idx))? else {
            if let Some(tel) = &tel {
                tel.lock_skips.inc();
            }
            return Ok(SaveOutcome::SkippedLocked);
        };
        match &tel {
            None => shard::save_shard(&dir, idx, count, shard, true)?,
            Some(tel) => {
                let t = std::time::Instant::now();
                shard::save_shard(&dir, idx, count, shard, true)?;
                tel.compact_seconds
                    .observe_seconds(t.elapsed().as_secs_f64());
            }
        }
        Ok(SaveOutcome::Written)
    }
}

fn encode_manifest(shard_count: usize, generation: u32) -> [u8; MANIFEST_LEN] {
    let mut m = [0u8; MANIFEST_LEN];
    m[..4].copy_from_slice(&MAGIC);
    m[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    m[8..12].copy_from_slice(&(shard_count as u32).to_le_bytes());
    m[12..16].copy_from_slice(&generation.to_le_bytes());
    let ck = checksum(&m[..16]);
    m[16..20].copy_from_slice(&ck.to_le_bytes());
    m
}

fn decode_manifest(bytes: &[u8]) -> Option<(usize, u32)> {
    let mut r = Cursor::new(bytes);
    let body = r.take(MANIFEST_LEN - 4).ok()?;
    if r.u32().ok()? != checksum(body) || r.finish().is_err() {
        return None;
    }
    let mut r = Cursor::new(body);
    if r.take(4).ok()? != MAGIC || r.u32().ok()? != FORMAT_VERSION {
        return None;
    }
    let count = r.u32().ok()? as usize;
    if count == 0 || count > usize::from(u16::MAX) {
        return None;
    }
    Some((count, r.u32().ok()?))
}

/// The `(shard count, generation)` recorded in `dir`'s manifest, if it
/// is readable and ours.
fn read_manifest(dir: &Path) -> Option<(usize, u32)> {
    decode_manifest(&fs::read(dir.join("manifest")).ok()?)
}

/// Write the manifest atomically (tmp + rename).
fn write_manifest(dir: &Path, shard_count: usize, generation: u32) -> io::Result<()> {
    let path = dir.join("manifest");
    let tmp = dir.join("manifest.tmp");
    fs::write(&tmp, encode_manifest(shard_count, generation))?;
    fs::rename(&tmp, &path)
}

#[cfg(test)]
mod tests;
