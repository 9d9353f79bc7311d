//! The batch fitness engine — paper Figure 4's client side, built to
//! scale.
//!
//! BinTuner's architecture is client–server: the GA (server) fans
//! compile-and-measure work out to clients, because fitness evaluation
//! (compile + NCD) dominates wall-clock (the paper's Table 3 is entirely
//! about iteration cost). [`FitnessEngine`] is that client side as an
//! in-process worker pool:
//!
//! * **Batching** — it implements [`genetic::Evaluator`], so the GA hands
//!   it whole generations at once instead of one individual at a time.
//! * **Parallelism** — unique genomes in a batch are compiled and scored
//!   across a configurable pool of scoped threads (no runtime
//!   dependency): one strided helper runs both of a batch's pool
//!   phases, stage-1 production and then every miss.
//! * **Caching** — results are memoized at three tiers: behind the exact
//!   repaired flag vector, behind the vector's resolved
//!   [`minicc::EffectConfig`], and — when the engine is built with
//!   [`FitnessEngine::with_store`] — behind a *persistent* cross-run
//!   [`FitnessStore`] keyed by `(module content hash, compiler profile,
//!   arch, effect digest)`. The emitted binary is a pure function of
//!   `(module, effect config, arch)`, so two *different* flag vectors
//!   that resolve to the same effects (common: most of the >100 flags are
//!   no-ops for any given module) share one compile + NCD score, and a
//!   re-tuned module starts warm from prior runs' compiles. Cache hits of
//!   any tier still *charge* the modelled compile cost, keeping the GA's
//!   time-budget accounting identical to a cache-free run — only measured
//!   wall-clock shrinks, which is what makes a warm run converge to the
//!   same best genome as a cold one.
//! * **Artifact reuse (tier 0)** — even a genuine miss rarely needs the
//!   *whole* pipeline. The compile is staged
//!   ([`Compiler::stage_ast`] → [`Compiler::stage_lower`] →
//!   [`Compiler::stage_mir`]) and the expensive early artifacts are
//!   cached under their [`minicc::StageKeys`] projections: optimized
//!   ASTs by `AstStageKey` digest, lowered-but-unoptimized binaries by
//!   the `(AstStageKey, LowerStageKey)` digest pair. A generation whose
//!   genomes differ only in late-stage flags (most mutations — paper
//!   Figure 7's long tail) shares the early stages and reruns only the
//!   cheap tail; [`EngineStats::full_compiles`] counts the misses that
//!   truly ran everything. Artifact cache contents and telemetry are
//!   governed by a *deterministic membership model* updated only in the
//!   single-threaded partition/commit phases, so reuse classification is
//!   identical at any worker count and on either evaluation backend
//!   (in-process or service) — worker threads only fill in artifact
//!   *values*, which are pure functions of their keys.
//! * **Shared baseline** — the `-O0` baseline is read from the store's
//!   binary blobs ([`FitnessStore::binary`]) when one is filed under the
//!   `-O0` preset's key, else compiled once and queued there. Its NCD
//!   pre-compression ([`NcdBaseline`]) is built once, on the calling
//!   thread, when a batch first runs misses on the local pool, and
//!   reused for every score; an engine whose misses all go to an
//!   executor (or that has none) never builds it.
//! * **Hoisted validation** — `Module::validate` runs once per engine
//!   (in the baseline compile, or on its own when the baseline came from
//!   the store) and constraint checking once per genome during
//!   partition; the miss execution path drives the pipeline stages
//!   directly instead of re-validating module and flags inside every
//!   compile. The module's size, which every genome's modelled compile
//!   cost scales with, is measured once at construction too.
//!
//! Failed compiles (flag vectors that defeat repair) are not fatal: they
//! score a fixed penalty fitness and are counted as constraint violations
//! in [`EngineStats`], so one bad genome can't abort a long tuning run.
//!
//! The *other* deployment shape — the paper's actual client–server farm
//! — plugs in underneath via [`MissExecutor`]: the engine still owns
//! partition, caches, store and stats, but ships the deduplicated miss
//! list to the `evald` service instead of its local pool (see
//! `bintuner::service`). Because everything except the raw
//! compile+score moves with the engine, the two shapes are bit-identical
//! by construction — including the stage-reuse telemetry, which is
//! classified at partition time from the membership model and never
//! depends on where the compiles physically ran.

use crate::store::{
    ArtifactStore, AstArtifactKey, FitnessStore, FlagBits, LowerArtifactKey, StoreKey,
    StoredFitness,
};
use binrep::{Arch, Binary};
use genetic::{Eval, EvalAbort, Evaluator};
use lzc::NcdBaseline;
use minicc::ast::Module;
use minicc::{CompileError, Compiler, EffectConfig, OptLevel, StageKeys};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Fitness assigned to a genome whose compile fails constraint checking.
/// NCD is non-negative, so any successfully compiled genome outranks it.
pub const FAILED_COMPILE_PENALTY: f64 = -1.0;

/// Worker-pool and artifact-cache configuration for [`FitnessEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads per batch. `0` means auto (available parallelism,
    /// capped at 8). `1` evaluates sequentially on the calling thread.
    /// Ignored when a [`MissExecutor`] is installed — the executor's farm
    /// is the parallelism then.
    pub workers: usize,
    /// Tier-0 stage-artifact cache (see module docs). `true` (the
    /// default) shares optimized-AST and lowered-binary artifacts across
    /// misses whose early-stage projections agree; `false` runs every
    /// miss through the full pipeline. Fitness results are bit-identical
    /// either way — only wall-clock and the stage-reuse telemetry
    /// change.
    pub artifact_cache: bool,
    /// Eviction bound on cached optimized-AST artifacts (stage 1).
    /// Oldest-reserved entries are evicted first, deterministically, at
    /// batch commit.
    pub max_ast_artifacts: usize,
    /// Eviction bound on cached lowered-binary artifacts (stage 2).
    pub max_lower_artifacts: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 0,
            artifact_cache: true,
            max_ast_artifacts: 512,
            max_lower_artifacts: 2048,
        }
    }
}

/// The computed outcome of one dispatched miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissResult {
    /// Fitness, bit-exact as the worker computed it.
    pub fitness: f64,
    /// Whether the compile failed constraint checking (scored
    /// [`FAILED_COMPILE_PENALTY`]).
    pub failed: bool,
    /// Measured wall-clock seconds on the worker (telemetry).
    pub wall_seconds: f64,
}

/// A pluggable backend for a batch's deduplicated miss list — the seam
/// the evaluation service plugs into.
///
/// The engine keeps everything that makes runs reproducible and cheap —
/// constraint pre-screening, all cache tiers, store recording,
/// stats — and hands an executor only the genomes that genuinely need a
/// compile. An executor must return exactly one [`MissResult`] per miss,
/// in order, and must be a pure function of each genome (bit-identical
/// fitness wherever it runs): that is what makes a service-backed run
/// replay the in-process trajectory exactly.
///
/// An executor that loses its entire substrate mid-batch (e.g. every
/// farm worker dies) returns [`EvalAbort`] instead of panicking: the
/// engine propagates it out of [`Evaluator::evaluate_batch`] so the GA
/// run fails cleanly and the hosting process (a one-shot CLI or the
/// tuning daemon) decides what dies. A failed *compile* is never an
/// abort — it scores [`FAILED_COMPILE_PENALTY`] like any other result.
pub trait MissExecutor: Sync {
    /// Compile + score every miss, preserving order.
    ///
    /// # Errors
    ///
    /// [`EvalAbort`] when the executor can never produce this batch's
    /// results (the evaluation substrate itself is gone).
    fn execute(&self, misses: &[Vec<bool>]) -> Result<Vec<MissResult>, EvalAbort>;
}

impl EngineConfig {
    /// The concrete worker count (resolving `0` to auto).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// Cumulative engine telemetry (drives perfbench's engine metrics and
/// the cache-hit columns of the iteration database).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Total genome evaluations requested (including cache hits).
    pub evaluations: usize,
    /// Evaluations served from the *in-run* memoization cache (within-
    /// and across-batch duplicates first computed by this engine).
    pub cache_hits: usize,
    /// Evaluations whose result was first served from the persistent
    /// cross-run store — each one a real compile some earlier run paid
    /// for. Repeat accesses to the same entry count as in-run
    /// `cache_hits`, so this is exactly the number of compiles
    /// warm-starting saved.
    pub persistent_hits: usize,
    /// Real compiles this engine performed (misses of every cache tier).
    /// Always `full_compiles + ast_reuse + lower_reuse`. Logical: with an
    /// executor installed, these compiles physically ran on its farm.
    pub compiles: usize,
    /// Misses that ran the entire pipeline — no stage artifact could be
    /// reused. This is the number the tier-0 cache exists to shrink: a
    /// pre-artifact-cache engine would report `full_compiles ==
    /// compiles`.
    pub full_compiles: usize,
    /// Misses that reused a cached optimized-AST artifact (stage 1
    /// skipped; lowering and machine-level optimization ran).
    pub ast_reuse: usize,
    /// Misses that reused a cached lowered-binary artifact (stages 1–2
    /// skipped; only the cheap machine-level tail ran). Disjoint from
    /// `ast_reuse`.
    pub lower_reuse: usize,
    /// Of `ast_reuse`, misses whose optimized-AST artifact came from the
    /// *persistent* [`ArtifactStore`] rather than this run's in-memory
    /// tier — each one a stage-1 pass some earlier run paid for, served
    /// across runs even when every fitness key is cold (the store is
    /// keyed by module *body* hash, so a renamed module still hits).
    pub store_ast_hits: usize,
    /// Of `lower_reuse`, misses served from the persistent
    /// [`ArtifactStore`] (stage 1–2 both skipped across runs).
    pub store_lower_hits: usize,
    /// Evaluations whose compile failed constraint checking and scored
    /// [`FAILED_COMPILE_PENALTY`], counted once per distinct
    /// configuration per run — including failures first served from the
    /// persistent store, so a warm run reports the same count as the
    /// cold run it replays.
    pub failed_compiles: usize,
    /// Results a farm discarded because their shard already had one (a
    /// shard has one holder, so a healthy farm reports `0`). The engine
    /// never fills it: a farm counts them in
    /// [`crate::ServiceSummary::duplicate_results`], and the field stays
    /// only for callers that fill and compare their own copy.
    pub duplicate_results: usize,
}

/// Telemetry handles for one [`FitnessEngine`], resolved once from a
/// [`btel::Registry`] and installed with
/// [`FitnessEngine::set_telemetry`]. Without one installed the engine
/// honors the Off-mode purity contract: no extra clock readings, no
/// telemetry state touched — the hot paths are bit-identical to a
/// telemetry-free build.
pub struct EngineTelemetry {
    /// Span recorder. Stage spans (`ast`/`lower`/`mir`/`encode`/`score`)
    /// parent to the id set with [`EngineTelemetry::set_trace_parent`]
    /// when one is set (a farm worker sets it to the server's
    /// dispatch-span id carried on the wire), else to the enclosing
    /// `batch` span.
    pub tracer: btel::Tracer,
    trace_parent: AtomicU64,
    evaluations: Arc<btel::Counter>,
    hits_memo: Arc<btel::Counter>,
    hits_persistent: Arc<btel::Counter>,
    compiles_full: Arc<btel::Counter>,
    compiles_ast_reuse: Arc<btel::Counter>,
    compiles_lower_reuse: Arc<btel::Counter>,
    stage_check: Arc<btel::Histogram>,
    stage_ast: Arc<btel::Histogram>,
    stage_lower: Arc<btel::Histogram>,
    stage_mir: Arc<btel::Histogram>,
    stage_encode: Arc<btel::Histogram>,
    stage_score: Arc<btel::Histogram>,
    miss_seconds: Arc<btel::Histogram>,
    batch_seconds: Arc<btel::Histogram>,
}

impl EngineTelemetry {
    /// Resolve the engine's metric families from `registry` (handles
    /// are cached here; the registry lock never sits on a hot path).
    pub fn from_registry(registry: &btel::Registry, tracer: btel::Tracer) -> EngineTelemetry {
        let hits = |tier| {
            registry.counter_with(
                "bintuner_engine_cache_hits_total",
                "evaluations served from a cache tier",
                "tier",
                tier,
            )
        };
        let compiles = |reuse| {
            registry.counter_with(
                "bintuner_engine_compiles_total",
                "real compiles by stage-reuse class",
                "reuse",
                reuse,
            )
        };
        let stage = |stage| {
            registry.histogram_with(
                "bintuner_engine_stage_seconds",
                "per-stage wall clock of a miss: compile, encode, NCD score",
                "stage",
                stage,
            )
        };
        EngineTelemetry {
            tracer,
            trace_parent: AtomicU64::new(0),
            evaluations: registry.counter(
                "bintuner_engine_evaluations_total",
                "genome evaluations requested (cache hits included)",
            ),
            hits_memo: hits("memo"),
            hits_persistent: hits("persistent"),
            compiles_full: compiles("full"),
            compiles_ast_reuse: compiles("ast"),
            compiles_lower_reuse: compiles("lower"),
            stage_check: stage("check"),
            stage_ast: stage("ast"),
            stage_lower: stage("lower"),
            stage_mir: stage("mir"),
            stage_encode: stage("encode"),
            stage_score: stage("score"),
            miss_seconds: registry.histogram(
                "bintuner_engine_miss_seconds",
                "wall clock of one compiled-and-scored miss",
            ),
            batch_seconds: registry.histogram(
                "bintuner_engine_batch_seconds",
                "wall clock of one evaluate_batch call",
            ),
        }
    }

    /// Set the parent span id for the next batches' stage spans (`0`
    /// clears it). A farm worker calls this with the dispatch-span id
    /// from the `Work` frame so its stage spans stitch into the
    /// server's trace.
    pub fn set_trace_parent(&self, parent: u64) {
        self.trace_parent.store(parent, Ordering::Relaxed);
    }
}

/// One memoized evaluation. The modelled compile cost is *not* cached:
/// it depends on the raw flag vector (per-enabled-flag pass cost), not
/// the effect config, so it is recomputed per genome.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    fitness: f64,
    failed: bool,
}

/// How much of the pipeline a miss actually ran, decided at partition
/// time from the artifact membership model (deterministic — see module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq)]
enum StageReuse {
    /// No artifact available: all three stages ran.
    Full,
    /// Optimized AST reused: lowering + machine-level stages ran.
    Ast,
    /// Lowered binary reused: only the machine-level stage ran.
    Lower,
}

/// The execution plan for one miss: its stage digests, the reuse
/// classification, and whether its lowered artifact is worth keeping.
#[derive(Debug, Clone, Copy)]
struct MissPlan {
    ast_digest: u128,
    lower_digest: u128,
    reuse: StageReuse,
    /// Retain the stage-2 artifact in the cache. Retention costs a deep
    /// clone of the lowered binary (the machine-level stage consumes
    /// its input), so it is only paid where it can pay off: keys
    /// already in the cache, or keys at least two misses of this batch
    /// share. A single-use lowered binary is consumed by the mir stage
    /// directly, clone-free — on large modules that clone would cost
    /// more than the rare cross-batch stage-2 hit saves.
    retain_lower: bool,
    /// The AST artifact is expected from the persistent store (the
    /// reuse classification was upgraded to [`StageReuse::Ast`] on its
    /// membership). A failed fetch recomputes — identical bytes, so the
    /// classification stands either way.
    store_ast: bool,
    /// The lowered artifact is expected from the persistent store
    /// ([`StageReuse::Lower`] across runs), same fallback contract.
    store_lower: bool,
}

/// Deterministic membership + FIFO-age model of the tier-0 artifact
/// cache. Updated *only* during partition (reservations) and batch
/// commit (evictions), both single-threaded under the cache lock, so
/// cache membership — and with it the reuse telemetry and eviction
/// sequence — is a pure function of the miss sequence, independent of
/// worker scheduling and of whether compiles run locally or on the
/// service farm.
#[derive(Default)]
struct ArtifactIndex {
    ast: HashSet<u128>,
    ast_order: VecDeque<u128>,
    lower: HashSet<(u128, u128)>,
    lower_order: VecDeque<(u128, u128)>,
}

/// The artifact *values*: filled in lazily by whichever worker first
/// compiles a member key (values are pure functions of their keys, so
/// a racy double-compute yields identical bytes and the first insert
/// wins). Keys are always a subset of the membership model; with a
/// [`MissExecutor`] installed this map stays empty — the artifacts live
/// in the clients' own engines.
#[derive(Default)]
struct ArtifactValues {
    ast: HashMap<u128, Arc<Module>>,
    lower: HashMap<(u128, u128), Arc<Binary>>,
    /// Measured stage-2 seconds for lowered artifacts this run computed
    /// fresh — the persistent store's retention currency; drained into
    /// it at batch commit.
    lower_cost: HashMap<(u128, u128), f64>,
}

/// Interior cache state (one lock: the partition phase touches all
/// levels together).
#[derive(Default)]
struct CacheState {
    /// Exact repaired-flag-vector memo (front level).
    by_flags: HashMap<Vec<bool>, CacheEntry>,
    /// Effect-config memo (back level): distinct flag vectors resolving
    /// to the same effects share one compile.
    by_effect: HashMap<EffectConfig, CacheEntry>,
    /// Tier-0 artifact membership model (see [`ArtifactIndex`]).
    artifacts: ArtifactIndex,
    /// AST digests already queued into (or known live in) the
    /// persistent artifact store — prevents re-encoding a blob every
    /// batch.
    persisted_ast: HashSet<u128>,
    /// Lowered-artifact keys already queued into the persistent store.
    persisted_lower: HashSet<(u128, u128)>,
}

/// The batch fitness engine: compiles genomes, scores them against the
/// shared `-O0` baseline with NCD, in parallel, with memoization.
///
/// Construction compiles the baseline once, or reads it from the store
/// ([`FitnessEngine::new`]); the engine is then shared immutably across
/// the GA run — all interior state (cache, stats, the lazily built NCD
/// baseline) is behind mutexes or a once-cell, and the hot
/// compile/score path runs lock-free on worker threads apart from brief
/// artifact-cache lookups.
pub struct FitnessEngine<'a> {
    compiler: &'a Compiler,
    module: &'a Module,
    /// Stable content hash of `module` — the persistent store's key
    /// component, computed once at construction.
    module_hash: u64,
    /// Name-independent body hash of `module` — the persistent
    /// *artifact* store's key component (a renamed module keeps its
    /// artifacts even though every fitness key changes).
    body_hash: u64,
    /// [`Module::size`] of `module`: every genome's modelled compile
    /// cost scales with it.
    module_size: usize,
    arch: Arch,
    config: EngineConfig,
    baseline_bin: Binary,
    /// The baseline came from the store's binary blobs, not a compile.
    baseline_from_store: bool,
    /// `baseline_bin` pre-compressed for scoring, built at the first
    /// batch with misses on the local pool.
    baseline: OnceLock<NcdBaseline>,
    cache: Mutex<CacheState>,
    /// Tier-0 artifact values (separate lock from the bookkeeping: the
    /// partition phase never touches values, workers never touch the
    /// model).
    artifact_values: Mutex<ArtifactValues>,
    stats: Mutex<EngineStats>,
    /// Third fitness cache tier: the cross-run store. Consulted during
    /// batch partition (under the partition's store lock, not
    /// per-worker) and fed every fresh result; recovered with
    /// [`FitnessEngine::into_stores`] for the end-of-run save.
    store: Option<Mutex<FitnessStore>>,
    /// Persistent sibling of the tier-0 artifact cache: optimized ASTs
    /// and lowered binaries from *earlier runs*, keyed by stage digests
    /// plus the module body hash. Consulted at partition time (miss
    /// classification) and on the miss path (fetch before recompute);
    /// fed fresh artifacts at batch commit when compiles run locally.
    artifact_store: Option<Mutex<ArtifactStore>>,
    /// When set, the deduplicated miss list is dispatched here (the
    /// evaluation service) instead of the local worker pool.
    executor: Option<&'a dyn MissExecutor>,
    /// Telemetry handles ([`FitnessEngine::set_telemetry`]); `None` is
    /// the Off-mode purity contract — no clock readings beyond the
    /// pre-instrumentation ones, no telemetry state touched.
    tel: Option<EngineTelemetry>,
}

// The engine is shared by reference across scoped worker threads; keep
// that property checked at compile time. `Compiler`, `Module`,
// `NcdBaseline` are all plain data.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<FitnessEngine<'_>>();
    assert_sync::<Compiler>();
    assert_sync::<NcdBaseline>();
    assert_sync::<Module>();
};

impl<'a> FitnessEngine<'a> {
    /// Build an engine for `module`: compiles the `-O0` baseline once.
    /// Its NCD pre-compression waits for the first batch that scores a
    /// miss on the local pool.
    ///
    /// # Errors
    ///
    /// [`crate::TuneError::Baseline`] when the baseline itself fails to
    /// compile (an invalid module; nothing downstream can recover).
    pub fn new(
        compiler: &'a Compiler,
        module: &'a Module,
        arch: Arch,
        config: EngineConfig,
    ) -> Result<FitnessEngine<'a>, crate::TuneError> {
        Self::build(compiler, module, arch, config, None)
    }

    /// Build an engine backed by a persistent cross-run store
    /// (warm-start): entries for this `(module, profile, arch)` serve as
    /// a third fitness cache tier, and every fresh compile is recorded
    /// into the store. The `-O0` baseline comes from the store's binary
    /// blob under the `-O0` preset's key when it holds an intact one;
    /// otherwise it is compiled and queued there. Recover the store with
    /// [`FitnessEngine::into_stores`] and call [`FitnessStore::save`] to
    /// persist the run's new results.
    ///
    /// # Errors
    ///
    /// See [`FitnessEngine::new`]. A module that fails
    /// [`Module::validate`] fails even when the store holds a blob for
    /// it.
    pub fn with_store(
        compiler: &'a Compiler,
        module: &'a Module,
        arch: Arch,
        config: EngineConfig,
        store: FitnessStore,
    ) -> Result<FitnessEngine<'a>, crate::TuneError> {
        Self::build(compiler, module, arch, config, Some(store))
    }

    fn build(
        compiler: &'a Compiler,
        module: &'a Module,
        arch: Arch,
        config: EngineConfig,
        mut store: Option<FitnessStore>,
    ) -> Result<FitnessEngine<'a>, crate::TuneError> {
        let module_hash = module.content_hash();
        let profile = compiler.profile();
        let baseline_key = StoreKey::new(
            module_hash,
            profile.kind(),
            arch,
            EffectConfig::from_flags(profile, &profile.preset(OptLevel::O0)).stable_digest(),
        );
        let stored = store.as_ref().and_then(|s| s.binary(&baseline_key));
        let baseline_from_store = stored.is_some();
        // The one place the module is validated: the checked baseline
        // compile, or `validate` itself when the baseline came from the
        // store (its bytes vouch for nothing about this module). Every
        // later miss drives the stages directly on the validated module.
        let baseline_bin = match stored {
            Some(bin) => module
                .validate()
                .map(|()| bin)
                .map_err(CompileError::BadModule),
            None => compiler.compile_preset(module, OptLevel::O0, arch),
        }
        .map_err(crate::TuneError::Baseline)?;
        if let Some(store) = &mut store {
            if !baseline_from_store {
                store.insert_binary(baseline_key, &baseline_bin);
            }
            // Record the module's shape signature so future runs on
            // *other* modules can find this one as a transfer source
            // (prior mining; unchanged features never grow the log).
            store.record_module_features(module_hash, module.features());
        }
        Ok(FitnessEngine {
            compiler,
            module,
            module_hash,
            body_hash: module.body_hash(),
            module_size: module.size(),
            arch,
            config,
            baseline_bin,
            baseline_from_store,
            baseline: OnceLock::new(),
            cache: Mutex::new(CacheState::default()),
            artifact_values: Mutex::new(ArtifactValues::default()),
            stats: Mutex::new(EngineStats::default()),
            store: store.map(Mutex::new),
            artifact_store: None,
            executor: None,
            tel: None,
        })
    }

    /// Route the miss list through `executor` (the evaluation service)
    /// instead of the local worker pool. Partition, caching, store
    /// recording and stats are unchanged — which is exactly why a
    /// service-backed run is bit-identical to an in-process one.
    pub fn set_executor(&mut self, executor: &'a dyn MissExecutor) {
        self.executor = Some(executor);
    }

    /// Install telemetry handles: per-tier cache counters, per-stage
    /// wall histograms and trace spans from here on. Fitness results
    /// and every cache/store decision are unaffected — telemetry only
    /// observes.
    pub fn set_telemetry(&mut self, tel: EngineTelemetry) {
        self.tel = Some(tel);
    }

    /// The installed telemetry handles, if any (the farm worker uses
    /// this to re-parent stage spans per dispatched shard).
    pub fn telemetry(&self) -> Option<&EngineTelemetry> {
        self.tel.as_ref()
    }

    /// Attach the persistent artifact store (see the `artifact_store`
    /// field docs). Classification consults it identically on every
    /// backend; fresh artifacts are recorded back only when compiles
    /// run on the local pool (with an executor the artifact values live
    /// in the clients' own engines). Recover it with
    /// [`FitnessEngine::into_stores`] for the end-of-run save.
    pub fn set_artifact_store(&mut self, store: ArtifactStore) {
        self.artifact_store = Some(Mutex::new(store));
    }

    /// Drain the stage artifacts queued into the engine's artifact store
    /// since the last drain: a farm worker's engine carries an in-memory
    /// artifact store purely so its freshly computed artifacts
    /// accumulate somewhere drainable, and each shard's `Result` frame
    /// ships them back to the server's persistent log. Empty for engines
    /// without an artifact store.
    pub fn drain_pending_artifacts(&self) -> crate::store::PendingArtifacts {
        self.artifact_store
            .as_ref()
            .map_or_else(Default::default, |s| s.lock().unwrap().drain_pending())
    }

    /// The persistent-store key for an effect configuration of this
    /// engine's `(module, profile, arch)`.
    fn store_key(&self, eff: &EffectConfig) -> StoreKey {
        StoreKey::new(
            self.module_hash,
            self.compiler.profile().kind(),
            self.arch,
            eff.stable_digest(),
        )
    }

    /// The store key `flags`' binary is filed under, or `None` when
    /// `flags` violate the profile's constraints (they compile to
    /// nothing).
    pub(crate) fn binary_key(&self, flags: &[bool]) -> Option<StoreKey> {
        let profile = self.compiler.profile();
        profile
            .constraints()
            .check(flags)
            .is_empty()
            .then(|| self.store_key(&EffectConfig::from_flags(profile, flags)))
    }

    /// Recover both persistent stores — fitness and artifacts — for the
    /// end-of-run save. Save the fitness store *first*: its first save
    /// creates the directory the artifact log lives in.
    pub fn into_stores(self) -> (Option<FitnessStore>, Option<ArtifactStore>) {
        (
            self.store.map(|s| s.into_inner().unwrap()),
            self.artifact_store.map(|s| s.into_inner().unwrap()),
        )
    }

    /// The persistent-artifact key of a stage-1 digest for this
    /// engine's `(module body, compiler)`.
    fn ast_key(&self, ast_digest: u128) -> AstArtifactKey {
        AstArtifactKey {
            body_hash: self.body_hash,
            compiler: self.compiler.profile().kind().stable_id(),
            ast_digest,
        }
    }

    /// The persistent-artifact key of a stage-2 digest pair for this
    /// engine's `(module body, compiler, arch)`.
    fn lower_key(&self, ast_digest: u128, lower_digest: u128) -> LowerArtifactKey {
        LowerArtifactKey {
            body_hash: self.body_hash,
            compiler: self.compiler.profile().kind().stable_id(),
            arch: self.arch.tag(),
            ast_digest,
            lower_digest,
        }
    }

    /// The `-O0` baseline binary the engine scores against.
    pub fn baseline_binary(&self) -> &Binary {
        &self.baseline_bin
    }

    /// Whether the baseline came from the store's binary blobs rather
    /// than a compile.
    pub(crate) fn baseline_from_store(&self) -> bool {
        self.baseline_from_store
    }

    /// A snapshot of the engine's telemetry.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock().unwrap()
    }

    /// Number of distinct flag vectors memoized so far (the exact-vector
    /// front level).
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().by_flags.len()
    }

    /// Number of optimized-AST artifacts currently cached (tier 0,
    /// stage 1) — bounded by [`EngineConfig::max_ast_artifacts`].
    pub fn ast_artifact_len(&self) -> usize {
        self.cache.lock().unwrap().artifacts.ast.len()
    }

    /// Number of lowered-binary artifacts currently cached (tier 0,
    /// stage 2) — bounded by [`EngineConfig::max_lower_artifacts`].
    pub fn lower_artifact_len(&self) -> usize {
        self.cache.lock().unwrap().artifacts.lower.len()
    }

    /// Fetch-or-compute the stage-1 artifact for `plan`'s AST digest:
    /// in-memory value first, then the persistent store, then a fresh
    /// `stage_ast` pass.
    fn artifact_ast(&self, digest: u128, eff: &EffectConfig) -> Arc<Module> {
        if let Some(m) = self.artifact_values.lock().unwrap().ast.get(&digest) {
            return m.clone();
        }
        if let Some(m) = self.store_ast(digest) {
            return m;
        }
        // Computed outside the lock: stage_ast is the expensive part and
        // a pure function of the digest's projection, so a concurrent
        // duplicate compute is wasted work at worst, never a wrong
        // value (first insert wins).
        let m = Arc::new(self.compiler.stage_ast(self.module, eff));
        self.artifact_values
            .lock()
            .unwrap()
            .ast
            .entry(digest)
            .or_insert(m)
            .clone()
    }

    /// Decode a persisted optimized-AST artifact. The blob was produced
    /// from a module with the same *body* but possibly another name, so
    /// the name is rewritten to this engine's module — the one part of
    /// the AST the stage pipeline carries through untouched. A checksum
    /// guards the record against corruption, not against a valid record
    /// that lowering would choke on, so the module must also pass
    /// [`Module::validate`] (every `stage_ast` output does). `None` on
    /// any miss, verification failure, decode or validation error:
    /// callers recompute, bit-identically.
    fn store_ast(&self, digest: u128) -> Option<Arc<Module>> {
        let astore = self.artifact_store.as_ref()?;
        let bytes = astore.lock().unwrap().fetch_ast(&self.ast_key(digest))?;
        let mut m = minicc::codec::decode_module(&bytes).ok()?;
        m.validate().ok()?;
        m.name = self.module.name.clone();
        Some(
            self.artifact_values
                .lock()
                .unwrap()
                .ast
                .entry(digest)
                .or_insert(Arc::new(m))
                .clone(),
        )
    }

    /// Decode a persisted lowered-binary artifact ([`Self::store_ast`]
    /// contract). Retained fetches land in the in-memory tier so later
    /// misses of the same key stay off disk.
    fn store_lower(&self, plan: &MissPlan) -> Option<Arc<Binary>> {
        let astore = self.artifact_store.as_ref()?;
        let key = self.lower_key(plan.ast_digest, plan.lower_digest);
        let bytes = astore.lock().unwrap().fetch_lower(&key)?;
        let mut b = binrep::codec::decode_binary(&bytes).ok()?;
        b.name = self.module.name.clone();
        let b = Arc::new(b);
        if !plan.retain_lower {
            return Some(b);
        }
        Some(
            self.artifact_values
                .lock()
                .unwrap()
                .lower
                .entry((plan.ast_digest, plan.lower_digest))
                .or_insert(b)
                .clone(),
        )
    }

    /// Run one stage of a miss (or a whole miss) and read its wall
    /// clock: returns the output with its elapsed seconds. With
    /// telemetry installed the seconds also go to `hist`, and
    /// `parent != 0` records a `name` span under that parent.
    fn measured<T>(
        &self,
        hist: impl FnOnce(&EngineTelemetry) -> &btel::Histogram,
        name: &str,
        parent: u64,
        run: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t = Instant::now();
        let out = run();
        let secs = t.elapsed().as_secs_f64();
        if let Some(tel) = &self.tel {
            hist(tel).observe_seconds(secs);
            if parent != 0 {
                tel.tracer.record(name, parent, t);
            }
        }
        (out, secs)
    }

    /// [`Self::measured`] for a stage whose wall only telemetry reads:
    /// Off mode is a plain `run()`, no clock read.
    fn timed<T>(
        &self,
        hist: impl FnOnce(&EngineTelemetry) -> &btel::Histogram,
        name: &str,
        parent: u64,
        run: impl FnOnce() -> T,
    ) -> T {
        if self.tel.is_none() {
            return run();
        }
        self.measured(hist, name, parent, run).0
    }

    /// Compile + score one miss according to its plan (run on workers).
    /// Misses are constraint-valid by partition and the module was
    /// validated at construction, so the staged pipeline cannot fail.
    /// With the artifact cache off every plan is [`StageReuse::Full`]:
    /// the miss runs stage 1 itself, and shares and retains nothing.
    fn evaluate_miss(
        &self,
        ncd: &NcdBaseline,
        eff: &EffectConfig,
        plan: &MissPlan,
        stage_parent: u64,
    ) -> CacheEntry {
        let lower_key = (plan.ast_digest, plan.lower_digest);
        // Only retained keys can have (or deserve) a cached stage-2
        // artifact; a store-classified miss fetches across runs.
        let mut cached = if plan.retain_lower {
            self.artifact_values
                .lock()
                .unwrap()
                .lower
                .get(&lower_key)
                .cloned()
        } else {
            None
        };
        if cached.is_none() && plan.store_lower {
            cached = self.store_lower(plan);
        }
        let mir = |lowered| {
            self.timed(
                |t| &t.stage_mir,
                "mir",
                stage_parent,
                || self.compiler.stage_mir(lowered, eff),
            )
        };
        let bin = match cached {
            // The artifact must outlive this miss: mir runs on a clone.
            Some(b) => mir((*b).clone()),
            None => {
                // With the cache on, the production phase ran every fresh
                // AST for this batch, so this is a cache fetch; the
                // compute fallback inside artifact_ast is only reachable
                // as a recompute-over-block safety valve.
                let ast = if self.config.artifact_cache {
                    self.artifact_ast(plan.ast_digest, eff)
                } else {
                    Arc::new(self.timed(
                        |t| &t.stage_ast,
                        "ast",
                        stage_parent,
                        || self.compiler.stage_ast(self.module, eff),
                    ))
                };
                let (lowered, lower_secs) = self.measured(
                    |t| &t.stage_lower,
                    "lower",
                    stage_parent,
                    || self.compiler.stage_lower(&ast, eff, self.arch),
                );
                if plan.retain_lower {
                    let mut values = self.artifact_values.lock().unwrap();
                    let b = values
                        .lower
                        .entry(lower_key)
                        .or_insert(Arc::new(lowered))
                        .clone();
                    // Record the measured stage cost — the persistent
                    // store's retention currency — for the commit-time
                    // drain.
                    values.lower_cost.entry(lower_key).or_insert(lower_secs);
                    drop(values);
                    mir((*b).clone())
                } else {
                    // Single-use lowered binary: the mir stage consumes
                    // it in place, no clone, nothing retained.
                    mir(lowered)
                }
            }
        };
        let bytes = self.timed(
            |t| &t.stage_encode,
            "encode",
            stage_parent,
            || binrep::encode_binary(&bin),
        );
        let fitness = self.timed(
            |t| &t.stage_score,
            "score",
            stage_parent,
            || ncd.score(&bytes),
        );
        CacheEntry {
            fitness,
            failed: false,
        }
    }
}

/// Which tier resolved a genome during partition.
#[derive(Clone, Copy, PartialEq)]
enum Hit {
    /// Not a cache hit: a fresh constraint penalty that needed no
    /// compile.
    Fresh,
    /// Served from the in-run memo (exact vector or effect config).
    InRun,
    /// First served from the persistent cross-run store.
    Persistent,
}

/// Where a genome's result comes from within one batch.
enum Source {
    /// Resolved during partition: a cache hit, or a fresh constraint
    /// penalty that needed no compile.
    Ready { entry: CacheEntry, hit: Hit },
    /// To be computed: index into the batch's miss list.
    Slot(usize),
}

/// Run `f` on every index in `0..n` across `workers` scoped threads,
/// worker `w` taking `w, w + workers, …`, and return the results in
/// index order. Runs on the calling thread when `workers.min(n) <= 1`.
fn strided<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let parts: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || (w..n).step_by(workers).map(f).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|i| parts[i % workers].next().expect("worker ran its index"))
        .collect()
}

impl Evaluator for FitnessEngine<'_> {
    fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort> {
        // The batch clock is telemetry only: Off mode reads no clock
        // here.
        let batch_start = self.tel.as_ref().map(|_| Instant::now());
        let profile = self.compiler.profile();
        // Per-batch span context: the batch span's id is allocated up
        // front so stage spans can hang off it; it is recorded (closed)
        // at the end. `stage_parent == 0` exactly when tracing is off —
        // the farm worker's wire convention, reused in-process.
        let (batch_span, trace_parent, stage_parent) = match &self.tel {
            Some(t) if t.tracer.is_enabled() => {
                let parent = t.trace_parent.load(Ordering::Relaxed);
                let id = t.tracer.alloc_id();
                (id, parent, if parent != 0 { parent } else { id })
            }
            _ => (0, 0, 0),
        };

        // Resolve each genome's effect config up front (cheap, lock-free).
        // Invalid vectors get `None`: they must not share the effect cache
        // with a valid vector resolving to the same effects. This is the
        // one constraint check a genome pays — the staged miss path never
        // re-checks.
        let resolve = |g: &Vec<bool>| {
            let valid = profile.constraints().check(g).is_empty();
            valid.then(|| EffectConfig::from_flags(profile, g))
        };
        let effects: Vec<Option<EffectConfig>> = self.timed(
            |t| &t.stage_check,
            "check",
            stage_parent,
            || genomes.iter().map(resolve).collect(),
        );

        // Partition against the cache tiers: exact flag vector first,
        // then effect config, then the persistent cross-run store. The
        // first effect config unseen by every tier becomes a "miss" to
        // compile; everything else is a hit. Each new miss is then
        // planned against the tier-0 artifact model: its stage digests
        // are classified (full / ast-reuse / lower-reuse) and reserved,
        // all under the single cache lock so the classification is
        // deterministic.
        let mut misses: Vec<(&Vec<bool>, &EffectConfig)> = Vec::new();
        let mut digests: Vec<(u128, u128)> = Vec::new();
        let mut plans: Vec<MissPlan> = Vec::new();
        let mut miss_by_eff: HashMap<&EffectConfig, usize> = HashMap::new();
        let mut fresh_failures = 0usize;
        let sources: Vec<Source> = {
            let mut cache = self.cache.lock().unwrap();
            let sources: Vec<Source> = genomes
                .iter()
                .zip(&effects)
                .map(|(g, eff)| {
                    if let Some(entry) = cache.by_flags.get(g) {
                        return Source::Ready {
                            entry: *entry,
                            hit: Hit::InRun,
                        };
                    }
                    let Some(eff) = eff else {
                        // Constraint violation: penalize without compiling
                        // (the compiler would reject it anyway).
                        let entry = CacheEntry {
                            fitness: FAILED_COMPILE_PENALTY,
                            failed: true,
                        };
                        cache.by_flags.insert(g.clone(), entry);
                        fresh_failures += 1;
                        return Source::Ready {
                            entry,
                            hit: Hit::Fresh,
                        };
                    };
                    if let Some(entry) = cache.by_effect.get(eff) {
                        let entry = *entry;
                        cache.by_flags.insert(g.clone(), entry);
                        return Source::Ready {
                            entry,
                            hit: Hit::InRun,
                        };
                    }
                    if let Some(store) = &self.store {
                        // Persistent tier: a hit is promoted into the
                        // in-run memo, so only this first serve counts as
                        // persistent — persistent_hits stays equal to the
                        // number of compiles warm-starting saved.
                        let persisted = store.lock().unwrap().get(&self.store_key(eff));
                        if let Some(hit) = persisted {
                            let entry = CacheEntry {
                                fitness: hit.fitness,
                                failed: hit.failed,
                            };
                            cache.by_effect.insert(eff.clone(), entry);
                            cache.by_flags.insert(g.clone(), entry);
                            return Source::Ready {
                                entry,
                                hit: Hit::Persistent,
                            };
                        }
                    }
                    if let Some(&slot) = miss_by_eff.get(eff) {
                        return Source::Slot(slot);
                    }
                    let slot = misses.len();
                    miss_by_eff.insert(eff, slot);
                    if self.config.artifact_cache {
                        let keys = StageKeys::project(eff);
                        digests.push((keys.ast.stable_digest(), keys.lower.stable_digest()));
                    }
                    misses.push((g, eff));
                    Source::Slot(slot)
                })
                .collect();

            // Plan the misses against the artifact model — a second,
            // whole-batch pass (still under the same lock, still
            // single-threaded) because the retention decision needs
            // batch-level knowledge: each miss's classification sees
            // earlier misses' artifacts as available — AST artifacts
            // are guaranteed by the phase-1 production barrier below;
            // a same-batch lowered artifact may still be in flight on
            // another worker, in which case the consumer recomputes
            // the lowering (identical bytes, classification
            // unaffected) — and a lowered artifact is reserved only
            // when a second miss will actually want it.
            if self.config.artifact_cache {
                let mut lower_mult: HashMap<(u128, u128), usize> = HashMap::new();
                for k in &digests {
                    *lower_mult.entry(*k).or_default() += 1;
                }
                // Persistent-artifact membership is part of the
                // deterministic classification input: the store indexes
                // its log on the first query below — before the run's
                // first miss is classified — and the index stays fixed
                // (pending inserts are not queryable), so a warm
                // artifact log upgrades the same misses on every backend
                // and at every worker count. A batch without misses
                // never asks, so a fully warm run never reads the log.
                let mut astore = self.artifact_store.as_ref().map(|s| s.lock().unwrap());
                let art = &mut cache.artifacts;
                let mut new_ast: HashSet<u128> = HashSet::new();
                let mut new_lower: HashSet<(u128, u128)> = HashSet::new();
                for &(ad, ld) in &digests {
                    let k = (ad, ld);
                    let mut store_ast = false;
                    let mut store_lower = false;
                    let reuse = if art.lower.contains(&k) || new_lower.contains(&k) {
                        StageReuse::Lower
                    } else if astore
                        .as_mut()
                        .is_some_and(|s| s.has_lower(&self.lower_key(ad, ld)))
                    {
                        store_lower = true;
                        StageReuse::Lower
                    } else if art.ast.contains(&ad) || new_ast.contains(&ad) {
                        StageReuse::Ast
                    } else if astore
                        .as_mut()
                        .is_some_and(|s| s.has_ast(&self.ast_key(ad)))
                    {
                        store_ast = true;
                        StageReuse::Ast
                    } else {
                        StageReuse::Full
                    };
                    // Reserve the AST key only for misses that will
                    // actually run stage 1: a Lower-classified miss
                    // never computes (or needs) the AST artifact, and a
                    // membership entry without a value would let later
                    // misses be counted as ast_reuse while physically
                    // rerunning the stage.
                    if reuse != StageReuse::Lower && !art.ast.contains(&ad) && new_ast.insert(ad) {
                        art.ast_order.push_back(ad);
                    }
                    let retain_lower = art.lower.contains(&k) || lower_mult[&k] >= 2;
                    if retain_lower && !art.lower.contains(&k) && new_lower.insert(k) {
                        art.lower_order.push_back(k);
                    }
                    plans.push(MissPlan {
                        ast_digest: ad,
                        lower_digest: ld,
                        reuse,
                        retain_lower,
                        store_ast,
                        store_lower,
                    });
                }
                art.ast.extend(new_ast);
                art.lower.extend(new_lower);
            } else {
                plans.extend((0..misses.len()).map(|_| MissPlan {
                    ast_digest: 0,
                    lower_digest: 0,
                    reuse: StageReuse::Full,
                    retain_lower: false,
                    store_ast: false,
                    store_lower: false,
                }));
            }
            sources
        };

        // Fresh stage-1 artifacts this batch produced locally, with
        // their measured wall time — the persistent store's retention
        // currency, recorded at commit. Stays empty with an executor:
        // the artifacts then live in the clients' own engines.
        let mut persist_ast: Vec<(u128, f64)> = Vec::new();
        // Phase-1 producer wall per miss slot: the representative miss
        // that produced a shared stage-1 artifact reports this
        // separately as [`Eval::ast_produce_seconds`] instead of having
        // it folded into its own `wall_seconds` (which would overstate
        // that genome's compile cost by the whole family's shared
        // work). All zeros with an executor — producer wall is then
        // inside the clients' own measured walls.
        let mut ast_wall = vec![0.0f64; misses.len()];
        // Compile + score the misses: on the installed executor (the
        // evaluation service's client farm) when present, else on the
        // local worker pool in two phases. Phase 1 produces each fresh
        // stage-1 artifact exactly once, in parallel across distinct
        // AST digests; phase 2 then strides *all* misses across the
        // workers (the pre-staging scheduling), each fetching its
        // artifacts from the cache. Without the production phase, the
        // common all-late-stage generation — one AST digest shared by
        // every miss — would collapse onto a single worker; with it,
        // the serial section is only the one stage-1 pass, and the
        // dominant lower+mir work stays fully parallel.
        let computed: Vec<(CacheEntry, f64)> = if let Some(executor) = self.executor {
            let flags: Vec<Vec<bool>> = misses.iter().map(|(f, _)| (*f).clone()).collect();
            // An abort here is safe to propagate mid-batch: the misses
            // were planned and their artifact keys reserved, but no
            // result has been committed to any cache tier — reserved
            // membership without a value is the documented
            // recompute-over-block safety valve, so a later engine (or
            // none) sees consistent state.
            let results = executor.execute(&flags)?;
            assert_eq!(
                results.len(),
                misses.len(),
                "executor must return one result per miss"
            );
            results
                .into_iter()
                .map(|r| {
                    let entry = CacheEntry {
                        fitness: r.fitness,
                        failed: r.failed,
                    };
                    (entry, r.wall_seconds)
                })
                .collect()
        } else if misses.is_empty() {
            Vec::new()
        } else {
            // The first local miss builds the baseline's pre-compression,
            // here on the calling thread, before any worker scores.
            let ncd = self
                .baseline
                .get_or_init(|| NcdBaseline::new(binrep::encode_binary(&self.baseline_bin)));
            let workers = self.config.resolved_workers();
            // Phase 1: one producer task per AST digest this batch
            // introduces (the representative is its first Full-classified
            // miss, which reports the artifact's wall time as its
            // `ast_produce_seconds`). A cache-off miss runs stage 1
            // itself, in phase 2.
            let mut fresh_ast: Vec<(u128, usize)> = Vec::new();
            let mut seen: HashSet<u128> = HashSet::new();
            for (slot, plan) in plans.iter().enumerate() {
                let stage1 = self.config.artifact_cache && plan.reuse == StageReuse::Full;
                if stage1 && seen.insert(plan.ast_digest) {
                    fresh_ast.push((plan.ast_digest, slot));
                }
            }
            let walls = strided(workers, fresh_ast.len(), |i| {
                let (digest, slot) = fresh_ast[i];
                let produce = || self.artifact_ast(digest, misses[slot].1);
                let (_, wall) = self.measured(|t| &t.stage_ast, "ast", stage_parent, produce);
                wall
            });
            for (&(digest, slot), wall) in fresh_ast.iter().zip(walls) {
                ast_wall[slot] = wall;
                persist_ast.push((digest, wall));
            }
            // Phase 2: every miss, strided. A miss that reaches a
            // retained-but-not-yet-filled lower artifact (its producer
            // running concurrently on another worker) recomputes the
            // lowering — wasted work at worst, never a different value,
            // and the partition-time telemetry is unaffected. The miss
            // wall records no span: its stages are the trace.
            strided(workers, misses.len(), |i| {
                let run = || self.evaluate_miss(ncd, misses[i].1, &plans[i], stage_parent);
                self.measured(|t| &t.miss_seconds, "miss", 0, run)
            })
        };

        // Memoize the fresh results at both in-run levels (including the
        // within-batch duplicate vectors that mapped to the same slot),
        // record them into the persistent store for future runs, and
        // commit the artifact model: evict oldest-reserved artifacts
        // beyond the configured bounds (deterministically — membership
        // and order were fixed at partition time).
        {
            if let Some(store) = &self.store {
                let mut store = store.lock().unwrap();
                for ((flags, eff), (entry, _)) in misses.iter().zip(&computed) {
                    store.insert(
                        self.store_key(eff),
                        StoredFitness {
                            fitness: entry.fitness,
                            failed: entry.failed,
                            // The representative vector makes the record
                            // minable (per-flag priors, config transfer).
                            flags: FlagBits::from_bools(flags),
                            // Stamped by the store at insertion.
                            generation: 0,
                        },
                    );
                }
            }
            let mut cache = self.cache.lock().unwrap();
            for ((flags, eff), &(entry, _)) in misses.iter().zip(&computed) {
                cache.by_effect.insert((*eff).clone(), entry);
                cache.by_flags.insert((*flags).clone(), entry);
            }
            for (g, src) in genomes.iter().zip(&sources) {
                if let Source::Slot(slot) = src {
                    // Representatives were inserted above; only clone the
                    // key for duplicate vectors not yet memoized.
                    if !cache.by_flags.contains_key(g) {
                        cache.by_flags.insert(g.clone(), computed[*slot].0);
                    }
                }
            }
            if self.config.artifact_cache {
                let state = &mut *cache;
                let art = &mut state.artifacts;
                let mut values = self.artifact_values.lock().unwrap();
                // Queue this batch's freshly computed artifacts into the
                // persistent store (local compiles only), before
                // eviction can drop their values. `persisted_*` keeps
                // the encode work once-per-key; the store itself applies
                // the cost floor and budget at save time.
                if let Some(astore) = &self.artifact_store {
                    let mut astore = astore.lock().unwrap();
                    for (digest, cost) in persist_ast {
                        if state.persisted_ast.insert(digest) {
                            if let Some(m) = values.ast.get(&digest) {
                                astore.insert_ast(
                                    self.ast_key(digest),
                                    cost,
                                    minicc::codec::encode_module(m),
                                );
                            }
                        }
                    }
                    let costs: Vec<((u128, u128), f64)> = values.lower_cost.drain().collect();
                    for ((ad, ld), cost) in costs {
                        if state.persisted_lower.insert((ad, ld)) {
                            if let Some(b) = values.lower.get(&(ad, ld)) {
                                astore.insert_lower(
                                    self.lower_key(ad, ld),
                                    cost,
                                    binrep::codec::encode_binary(b),
                                );
                            }
                        }
                    }
                } else {
                    values.lower_cost.clear();
                }
                while art.ast_order.len() > self.config.max_ast_artifacts {
                    let d = art.ast_order.pop_front().expect("order tracks membership");
                    art.ast.remove(&d);
                    values.ast.remove(&d);
                }
                while art.lower_order.len() > self.config.max_lower_artifacts {
                    let k = art
                        .lower_order
                        .pop_front()
                        .expect("order tracks membership");
                    art.lower.remove(&k);
                    values.lower.remove(&k);
                }
            }
        }

        // Assemble in input order. Cache hits (in-run or persistent)
        // charge the same modelled cost as a recompile (so the GA's
        // budget accounting is cache-agnostic) but report zero measured
        // wall time; within-batch duplicates pay the compile wall time
        // once, on first occurrence — which also carries the miss's
        // stage-reuse classification.
        let mut first_use = vec![true; misses.len()];
        let mut hits = 0usize;
        let mut persistent = 0usize;
        let mut cold_failures = 0usize;
        let results: Vec<Eval> = genomes
            .iter()
            .zip(sources)
            .map(|(g, src)| {
                let (entry, wall, ast_produce, hit, reuse) = match src {
                    Source::Ready { entry, hit } => {
                        if hit == Hit::Persistent {
                            // A failure first served from the store is the
                            // warm analog of a fresh failed compile: count
                            // it once so cold and warm telemetry agree.
                            cold_failures += entry.failed as usize;
                        }
                        (entry, 0.0, 0.0, hit, None)
                    }
                    Source::Slot(slot) => {
                        let (entry, wall) = computed[slot];
                        if first_use[slot] {
                            first_use[slot] = false;
                            cold_failures += entry.failed as usize;
                            // The representative also reports any shared
                            // stage-1 production it performed for its
                            // effect family — separately, so its own
                            // wall stays truthful.
                            (
                                entry,
                                wall,
                                ast_wall[slot],
                                Hit::Fresh,
                                Some(plans[slot].reuse),
                            )
                        } else {
                            (entry, 0.0, 0.0, Hit::InRun, None)
                        }
                    }
                };
                hits += (hit == Hit::InRun) as usize;
                persistent += (hit == Hit::Persistent) as usize;
                Eval {
                    fitness: entry.fitness,
                    cost_seconds: self.compiler.simulated_compile_seconds(self.module_size, g),
                    wall_seconds: wall,
                    ast_produce_seconds: ast_produce,
                    cache_hit: hit == Hit::InRun,
                    persistent_hit: hit == Hit::Persistent,
                    ast_reused: reuse == Some(StageReuse::Ast),
                    lower_reused: reuse == Some(StageReuse::Lower),
                }
            })
            .collect();

        let mut stats = self.stats.lock().unwrap();
        stats.evaluations += genomes.len();
        stats.cache_hits += hits;
        stats.persistent_hits += persistent;
        stats.compiles += misses.len();
        for plan in &plans {
            match plan.reuse {
                StageReuse::Full => stats.full_compiles += 1,
                StageReuse::Ast => stats.ast_reuse += 1,
                StageReuse::Lower => stats.lower_reuse += 1,
            }
            stats.store_ast_hits += plan.store_ast as usize;
            stats.store_lower_hits += plan.store_lower as usize;
        }
        stats.failed_compiles += fresh_failures + cold_failures;
        drop(stats);
        if let (Some(tel), Some(batch_start)) = (&self.tel, batch_start) {
            tel.evaluations.add(genomes.len() as u64);
            tel.hits_memo.add(hits as u64);
            tel.hits_persistent.add(persistent as u64);
            for plan in &plans {
                match plan.reuse {
                    StageReuse::Full => tel.compiles_full.inc(),
                    StageReuse::Ast => tel.compiles_ast_reuse.inc(),
                    StageReuse::Lower => tel.compiles_lower_reuse.inc(),
                }
            }
            tel.batch_seconds
                .observe_seconds(batch_start.elapsed().as_secs_f64());
            if batch_span != 0 {
                tel.tracer
                    .record_with_id(batch_span, "batch", trace_parent, batch_start);
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicc::CompilerKind;

    /// Scores every miss 0.5 without compiling: a farm stand-in.
    struct Constant;

    impl MissExecutor for Constant {
        fn execute(&self, misses: &[Vec<bool>]) -> Result<Vec<MissResult>, EvalAbort> {
            Ok(misses
                .iter()
                .map(|_| MissResult {
                    fitness: 0.5,
                    failed: false,
                    wall_seconds: 0.0,
                })
                .collect())
        }
    }

    #[test]
    fn strided_returns_results_in_index_order() {
        let caller = std::thread::current().id();
        for n in [0usize, 1, 2, 7] {
            for workers in [1usize, 2, 3, 8] {
                let out = strided(workers, n, |i| (i * 10, std::thread::current().id()));
                let order: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(order, want, "n {n}, workers {workers}");
                let serial = workers.min(n) <= 1;
                for (_, id) in out {
                    assert_eq!(id == caller, serial, "n {n}, workers {workers}: thread");
                }
            }
        }
    }

    #[test]
    fn the_ncd_baseline_is_built_at_the_first_local_miss_only() {
        let compiler = Compiler::new(CompilerKind::Gcc);
        let module = &corpus::by_name("429.mcf").unwrap().module;
        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let o2 = compiler.profile().preset(OptLevel::O2);
        let mut invalid = vec![false; compiler.profile().n_flags()];
        invalid[compiler.profile().flag_index("-fpartial-inlining").unwrap()] = true;

        let local = FitnessEngine::new(&compiler, module, Arch::X86, config.clone()).unwrap();
        local.evaluate_batch(&[]).unwrap();
        local.evaluate_batch(&[invalid]).unwrap();
        assert!(local.baseline.get().is_none(), "built without a miss");
        let scored = local.evaluate_batch(std::slice::from_ref(&o2)).unwrap();
        let ncd = local.baseline.get().expect("built by the first miss");
        assert_eq!(ncd.data(), binrep::encode_binary(local.baseline_binary()));
        assert!(scored[0].fitness > 0.0);

        let mut farmed = FitnessEngine::new(&compiler, module, Arch::X86, config).unwrap();
        farmed.set_executor(&Constant);
        assert_eq!(farmed.evaluate_batch(&[o2]).unwrap()[0].fitness, 0.5);
        assert!(farmed.baseline.get().is_none(), "the farm scores");
    }
}
