//! The auto-tuning loop (paper Figure 4): genetic algorithm on the server
//! side, compiler + fitness computation on the client side, a constraint
//! solver rejecting/repairing invalid optimization sequences, and a
//! database recording every iteration.

use crate::db::{Database, IterationRow};
use crate::engine::{EngineConfig, EngineStats, FitnessEngine, FAILED_COMPILE_PENALTY};
use crate::priors::{mine_prior, PriorConfig, PriorMode};
use crate::service::{fold_artifacts, ServiceExecutor};
use crate::store::{ArtifactStore, FitnessStore, SaveOutcome, StoreKey};
use binrep::{Arch, Binary};
use genetic::{Ga, GaParams, GaRun, StopReason, Termination};
use lzc::NcdBaseline;
use minicc::ast::Module;
use minicc::{CompileError, Compiler, CompilerKind, EffectConfig, OptLevel};
use std::path::PathBuf;
use std::sync::Arc;

/// Tuner configuration.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Compiler family to drive.
    pub compiler: CompilerKind,
    /// Target architecture.
    pub arch: Arch,
    /// GA parameters.
    pub ga: GaParams,
    /// Termination criteria.
    pub termination: Termination,
    /// RNG seed.
    pub seed: u64,
    /// Fitness-engine worker threads (`0` = auto; `1` = sequential).
    /// The tuned result is identical at any worker count — only
    /// wall-clock changes.
    pub workers: usize,
    /// Path of the persistent cross-run fitness store (paper Figure 4's
    /// database). `Some(path)`: results are loaded before the run
    /// (warm start — previously compiled configurations are served
    /// without recompiling, and the run converges to the same best
    /// genome as a cold one) and this run's fresh compiles are saved
    /// after it. A missing, stale-version, or corrupt file degrades to a
    /// cold start, never an error. `None`: caching stays in-process.
    pub cache_path: Option<PathBuf>,
    /// Population-level dedup: when `true`, breeding consults a
    /// seen-digest set of resolved [`EffectConfig`]s and re-breeds
    /// offspring that collapse to an already-evaluated configuration, so
    /// the evaluation budget goes to genuinely new ones. Changes the
    /// search trajectory (still deterministic in the seed), so it
    /// defaults to `false`, under which [`Tuner::tune`] stays
    /// bit-identical to [`Tuner::tune_sequential`].
    pub dedup: bool,
    /// Prior mining over the persistent store (requires
    /// [`TunerConfig::cache_path`]; a configured mode without a store is
    /// inert). [`PriorMode::Off`] (the default) is bit-identical to a
    /// prior-free tuner; `SeedOnly`/`SeedAndBias` mine the loaded store
    /// into a [`crate::PotencyPrior`] that seeds the initial population
    /// (and, for `SeedAndBias`, biases per-flag mutation). An *empty*
    /// store mines an empty prior, so the run degrades exactly to the
    /// unseeded cold run — differentially tested.
    pub priors: PriorMode,
    /// Mining knobs (seed count, confidence support, bias band, age
    /// decay) applied whenever [`TunerConfig::priors`] is on. The
    /// default preserves the differential guarantees above.
    pub prior_config: PriorConfig,
    /// Tier-0 stage-artifact cache in the fitness engine: misses that
    /// differ from an earlier compile only in late-pipeline flags reuse
    /// the cached optimized-AST / lowered-binary artifacts and rerun
    /// only the cheap tail. `true` (the default) is bit-identical to
    /// `false` in everything but wall-clock and the stage-reuse
    /// telemetry (differentially tested in process and on a farm, whose
    /// client engines take the same switch at launch).
    pub artifact_cache: bool,
    /// The telemetry plane ([`btel::TelemetryMode::Off`] by default).
    /// `On` builds a [`btel::Registry`] and a bounded [`btel::Tracer`],
    /// installs them in the fitness engine and the stores, and returns
    /// them in [`TuneResult::registry`] / [`TuneResult::spans`]. A farm
    /// keeps its own, handed to it at launch
    /// ([`crate::FarmTelemetry`]). `Off` is a hard purity contract — no
    /// extra clock reads, no telemetry state, a run bit-identical to a
    /// pre-telemetry tuner (differentially tested in process and on
    /// every farm topology).
    pub telemetry: btel::TelemetryMode,
}

impl Default for TunerConfig {
    fn default() -> TunerConfig {
        TunerConfig {
            compiler: CompilerKind::Gcc,
            arch: Arch::X86,
            ga: GaParams::default(),
            termination: Termination {
                max_evaluations: 700,
                min_evaluations: 220,
                plateau_window: 150,
                plateau_growth: 0.0035,
                ..Default::default()
            },
            seed: 0xB147,
            workers: 0,
            cache_path: None,
            dedup: false,
            priors: PriorMode::Off,
            prior_config: PriorConfig::default(),
            artifact_cache: true,
            telemetry: btel::TelemetryMode::Off,
        }
    }
}

/// Unrecoverable tuning failures.
///
/// Candidate flag vectors that fail to compile are *not* errors: the
/// engine scores them with [`FAILED_COMPILE_PENALTY`] and the GA selects
/// against them (BinTuner's constraint-violation handling). Only the
/// compiles the run cannot proceed without — and an executor whose farm
/// is gone — surface here.
///
/// Implements [`std::error::Error`] with full source chaining (e.g.
/// `Service → evald::EvaldError → std::io::Error`), so callers can `?`
/// it into `Box<dyn Error>` and walk the chain uniformly.
#[derive(Debug, Clone)]
pub enum TuneError {
    /// The `-O0` baseline failed to compile — the module itself is
    /// invalid, so there is nothing to diff against.
    Baseline(CompileError),
    /// The winning flag vector failed to recompile at the end of the run
    /// (would indicate a constraint-repair bug; recorded, not panicked).
    BestRecompile(CompileError),
    /// The evaluation service failed: the farm could not be launched
    /// (transport setup, no client survived the handshake), or every
    /// client was lost mid-batch with work outstanding (the batch
    /// aborted through [`genetic::EvalAbort`] — the run stops but the
    /// hosting process, e.g. a multi-tenant daemon, lives on).
    /// `Arc`-wrapped so `TuneError` stays cheaply cloneable; the
    /// underlying [`evald::EvaldError`] — and through it any I/O error
    /// — is reachable via [`std::error::Error::source`].
    Service(std::sync::Arc<evald::EvaldError>),
    /// The job was quarantined as poison: the *same* module killed or
    /// hung freshly spawned workers this many consecutive times, so the
    /// supervisor failed the job instead of burning the farm in a crash
    /// loop. Other tenants on the shared farm are unharmed.
    Quarantined {
        /// Consecutive worker-fatal launches before giving up.
        strikes: u32,
    },
}

impl PartialEq for TuneError {
    fn eq(&self, other: &TuneError) -> bool {
        match (self, other) {
            (TuneError::Baseline(a), TuneError::Baseline(b)) => a == b,
            (TuneError::BestRecompile(a), TuneError::BestRecompile(b)) => a == b,
            // EvaldError carries io::Error (not comparable); same
            // rendering is the honest equivalence for tests/logging.
            (TuneError::Service(a), TuneError::Service(b)) => {
                std::sync::Arc::ptr_eq(a, b) || a.to_string() == b.to_string()
            }
            (TuneError::Quarantined { strikes: a }, TuneError::Quarantined { strikes: b }) => {
                a == b
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Baseline(e) => write!(f, "baseline -O0 compile failed: {e}"),
            TuneError::BestRecompile(e) => {
                write!(f, "best flag vector failed to recompile: {e}")
            }
            TuneError::Service(e) => write!(f, "evaluation service failed: {e}"),
            TuneError::Quarantined { strikes } => write!(
                f,
                "job quarantined as poison: fresh workers died or hung \
                 {strikes} consecutive times on this module"
            ),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Baseline(e) | TuneError::BestRecompile(e) => Some(e),
            TuneError::Service(e) => Some(&**e),
            TuneError::Quarantined { .. } => None,
        }
    }
}

/// What happened to the persistent store over one run (present iff
/// [`TunerConfig::cache_path`] was set).
///
/// A failed save is reported here rather than as a [`TuneError`]: the
/// tuning result itself is complete and valid — only the warm start for
/// *future* runs was lost.
#[derive(Debug, Clone)]
pub struct PersistSummary {
    /// The store file.
    pub path: PathBuf,
    /// Entries loaded from disk before the run (0 on a cold start).
    pub loaded_entries: usize,
    /// Fresh results this run added to the store.
    pub new_entries: usize,
    /// The error message if saving the store failed.
    pub save_error: Option<String>,
    /// The persistence plane *degraded to in-memory*: the save failed
    /// (ENOSPC, an obstructed path, a torn disk) but the job itself
    /// completed normally on the in-memory store — only the warm start
    /// for future runs was lost. `true` iff `save_error` is `Some`.
    pub degraded: bool,
    /// The save was skipped because another live process holds the
    /// store's advisory lock (two tuners sharing one `cache_path`): the
    /// run's results are intact, only the warm start for future runs was
    /// deferred. See [`crate::store::SaveOutcome::SkippedLocked`].
    pub lock_skipped: bool,
    /// The `-O0` baseline came from the store's binary blobs
    /// ([`FitnessStore::binary`]), so the run did not compile it.
    pub baseline_from_store: bool,
    /// The winner's binary came from the store's binary blobs, so the
    /// run did not recompile it.
    pub best_from_store: bool,
}

/// What a mined prior contributed to one run (present iff
/// [`TunerConfig::priors`] was not [`PriorMode::Off`] and a store was
/// configured).
#[derive(Debug, Clone)]
pub struct PriorSummary {
    /// The mode the run used.
    pub mode: PriorMode,
    /// Store records mined (profile/arch-matching, flag-carrying).
    pub mined_records: usize,
    /// Seeds actually evaluated in the initial population (clipped by
    /// population size; 0 for an empty prior).
    pub seeds_injected: usize,
    /// Content hash of the module the seeds were transferred from
    /// (`None` for an empty prior).
    pub source_module: Option<u64>,
    /// Shape distance from the tuned module to the source (0 = itself).
    pub source_distance: Option<f64>,
    /// Best fitness among the evaluated seeds (prior hit quality;
    /// `None` when nothing was seeded).
    pub seed_best_ncd: Option<f64>,
    /// Whether a transferred seed achieved the run's final best fitness
    /// — the strongest form of a prior "hit".
    pub seed_matched_best: bool,
    /// Flags whose mutation weight the prior moved off neutral (0 in
    /// [`PriorMode::SeedOnly`]).
    pub biased_flags: usize,
}

/// The outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best (constraint-valid) flag vector found.
    pub best_flags: Vec<bool>,
    /// Its NCD against the `-O0` baseline.
    pub best_ncd: f64,
    /// Number of compilation iterations performed.
    pub iterations: usize,
    /// Why the search stopped.
    pub stopped_by: StopReason,
    /// Modelled compilation wall-clock total, in hours (Table 1 scale).
    pub simulated_hours: f64,
    /// The tuned binary: `best_flags` compiled, or the same bytes read
    /// back from the store ([`PersistSummary::best_from_store`]).
    pub best_binary: Binary,
    /// The `-O0` baseline binary.
    pub baseline: Binary,
    /// Per-iteration records.
    pub db: Database,
    /// Fitness-engine telemetry: cache hits (in-run and persistent),
    /// real compiles, failed compiles, measured wall-clock (all zeros on
    /// the sequential compat path).
    pub engine_stats: EngineStats,
    /// Offspring re-bred by population-level dedup
    /// ([`TunerConfig::dedup`]; 0 when disabled).
    pub skipped_duplicates: usize,
    /// Persistent-store activity ([`TunerConfig::cache_path`]; `None`
    /// when no store is configured).
    pub persistence: Option<PersistSummary>,
    /// What the mined prior contributed ([`TunerConfig::priors`];
    /// `None` when priors are off or no store is configured).
    pub prior: Option<PriorSummary>,
    /// The metric registry behind this run's engine and stores, for
    /// exposition via [`btel::Registry::render_text`]. `None` when
    /// [`TunerConfig::telemetry`] was `Off`.
    pub registry: Option<Arc<btel::Registry>>,
    /// The run's trace spans — engine batches and per-stage compile
    /// timings. A farm's dispatch spans, with its workers' spans
    /// stitched in, stay in the farm's own tracer. Empty when telemetry
    /// was off.
    pub spans: Vec<btel::SpanRecord>,
}

/// BinTuner: tunes a module's optimization flags to maximize binary code
/// difference from `-O0`.
#[derive(Debug)]
pub struct Tuner {
    config: TunerConfig,
    compiler: Compiler,
}

impl Tuner {
    /// Build a tuner.
    pub fn new(config: TunerConfig) -> Tuner {
        let compiler = Compiler::new(config.compiler);
        Tuner { config, compiler }
    }

    /// The compiler profile in use.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Run iterative compilation on `module` through the batch fitness
    /// engine: generations are compiled + NCD-scored in parallel across
    /// the configured worker pool, duplicate genomes are served from the
    /// memoization cache, and the `-O0` baseline is compiled at most once.
    ///
    /// The fitness of a flag vector is `NCD(code(flags), code(-O0))`
    /// (§4.2); constraint violations are repaired before compilation, and
    /// the rare genome that still fails to compile scores
    /// [`FAILED_COMPILE_PENALTY`] rather than aborting the run.
    ///
    /// The result is deterministic in the seed and identical at any
    /// worker count (and, with [`TunerConfig::dedup`] off, to
    /// [`Tuner::tune_sequential`]). With [`TunerConfig::cache_path`]
    /// set, a warm run also converges to the same best genome and
    /// fitness as the cold run that filled the store — persistent hits
    /// return bit-identical fitness and charge the same modelled cost,
    /// so the GA follows the same trajectory while skipping the real
    /// compiles. A warm run also takes the baseline and the winner's
    /// binary from the store's binary blobs when it holds them, so a
    /// run served wholly from the store compiles nothing.
    ///
    /// # Errors
    ///
    /// See [`TuneError`] — only the baseline compile and the final
    /// recompile of the winning flag vector can fail the run.
    pub fn tune(&self, module: &Module) -> Result<TuneResult, TuneError> {
        self.tune_impl(module, None)
    }

    /// Like [`Tuner::tune`], but dispatching the deduplicated miss
    /// lists to `executor`, a farm the caller owns. The tuner launches
    /// no farm of its own: whoever launches one hands it in here and
    /// reads what it did from [`ServiceHandle::finish`]. This is also
    /// how the tuning daemon multiplexes many jobs onto one shared farm:
    /// each job runs the full, unchanged pipeline (store warm start,
    /// prior mining, GA, persistence), while compilation is brokered by
    /// the shared proxy. The determinism contract is the executor's to
    /// keep: an executor that returns the same bit-exact results as the
    /// in-process pool yields a bit-identical [`TuneResult`].
    ///
    /// ```no_run
    /// use bintuner::service::ServiceHandle;
    /// use bintuner::{ProcessFarm, ServiceConfig, TransportKind, Tuner, TunerConfig, WorkerMode};
    ///
    /// let bench = corpus::by_name("462.libquantum").unwrap();
    /// let config = TunerConfig::default();
    /// let farm = ServiceHandle::launch_with(
    ///     &ServiceConfig {
    ///         clients: 4,
    ///         // Worker processes need a stream transport: Tcp or Unix.
    ///         transport: TransportKind::Tcp,
    ///         workers: WorkerMode::Processes(ProcessFarm::default()),
    ///         ..ServiceConfig::default()
    ///     },
    ///     config.compiler,
    ///     &bench.module,
    ///     config.arch,
    ///     config.artifact_cache,
    ///     None, // no FarmTelemetry: the farm records no metrics or spans
    /// )?;
    /// let result = Tuner::new(config).tune_with_executor(&bench.module, &farm)?;
    /// let (s, _) = farm.finish();
    /// println!(
    ///     "NCD {:.3} via {} clients over {}: {} shards ({} re-dispatched, {} duplicate results), \
    ///      {} cost observations",
    ///     result.best_ncd, s.clients, s.transport, s.shards,
    ///     s.redispatched_shards, s.duplicate_results, s.cost_observations,
    /// );
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Tuner::tune`]; an executor abort surfaces as
    /// [`TuneError::Service`] with the failure taken from
    /// [`ServiceExecutor::take_failure`]. After a successful run the
    /// executor's stage artifacts ([`ServiceExecutor::take_artifacts`])
    /// are folded into the run's artifact store before it saves.
    ///
    /// [`ServiceHandle::finish`]: crate::service::ServiceHandle::finish
    pub fn tune_with_executor(
        &self,
        module: &Module,
        executor: &dyn ServiceExecutor,
    ) -> Result<TuneResult, TuneError> {
        self.tune_impl(module, Some(executor))
    }

    fn tune_impl(
        &self,
        module: &Module,
        executor: Option<&dyn ServiceExecutor>,
    ) -> Result<TuneResult, TuneError> {
        let engine_config = EngineConfig {
            workers: self.config.workers,
            artifact_cache: self.config.artifact_cache,
            ..EngineConfig::default()
        };
        let mut store = self.config.cache_path.as_ref().map(FitnessStore::load);
        let loaded_entries = store.as_mut().map_or(0, FitnessStore::len);
        let profile = self.compiler.profile();
        // Mine the loaded store into a prior before the engine takes
        // ownership of it. PriorMode::Off takes no prior path at all, and
        // an empty store mines an empty prior (no seeds, uniform bias):
        // both leave the GA inputs — and thus the run — bit-identical to
        // a prior-free tuner.
        let prior_cfg = &self.config.prior_config;
        let prior = match (&mut store, self.config.priors) {
            (Some(store), PriorMode::SeedOnly | PriorMode::SeedAndBias) => Some(mine_prior(
                store,
                profile,
                self.config.arch,
                module,
                prior_cfg,
            )),
            _ => None,
        };
        // Telemetry (when on): one registry and one span ring shared by
        // the engine and the stores.
        let telemetry = self
            .config
            .telemetry
            .is_on()
            .then(|| (Arc::new(btel::Registry::new()), btel::Tracer::enabled(4096)));
        if let (Some(store), Some((registry, _))) = (&mut store, &telemetry) {
            store.set_telemetry(crate::store::StoreTelemetry::from_registry(registry));
        }
        let mut engine = match store {
            Some(store) => FitnessEngine::with_store(
                &self.compiler,
                module,
                self.config.arch,
                engine_config,
                store,
            )?,
            None => FitnessEngine::new(&self.compiler, module, self.config.arch, engine_config)?,
        };
        if let Some((registry, tracer)) = &telemetry {
            engine.set_telemetry(crate::engine::EngineTelemetry::from_registry(
                registry,
                tracer.clone(),
            ));
        }
        if let Some(executor) = executor {
            engine.set_executor(executor);
        }
        // The artifact store lives inside the (v4) store directory.
        // Loading against a path with no store directory yet is a clean
        // cold start whose save degrades to a skip until the fitness
        // store's own save creates the directory — so the very first run
        // under a fresh path warms fitness only, and every later run
        // warms both.
        if self.config.artifact_cache {
            if let Some(path) = &self.config.cache_path {
                let mut artifacts = ArtifactStore::load(path);
                if let Some((registry, _)) = &telemetry {
                    artifacts.set_telemetry(
                        registry.histogram(
                            "bintuner_store_artifact_save_seconds",
                            "Wall time of each artifact-log save (append or rewrite).",
                        ),
                        registry.histogram(
                            "bintuner_store_artifact_load_seconds",
                            "Wall time of each artifact-log read and index build (at most one per run).",
                        ),
                    );
                }
                engine.set_artifact_store(artifacts);
            }
        }
        let mut ga_params = self.config.ga.clone();
        if let Some(prior) = &prior {
            ga_params.seeded_initial = prior.seeds.clone();
            if self.config.priors == PriorMode::SeedAndBias {
                ga_params.mutation_bias = prior.mutation_bias(prior_cfg);
            }
        }
        let mut ga = Ga::new(profile.n_flags(), ga_params, self.config.seed);
        let repair = |flags: &[bool], seed: u64| profile.constraints().repair(flags, seed);
        let run_result = if self.config.dedup {
            ga.run_batched_dedup(
                &engine,
                repair,
                |flags| {
                    // Mirror the engine's equivalence classes exactly: a
                    // vector that defeats repair never resolves an effect
                    // config there (it takes the penalty path keyed by
                    // exact vector), so classing it under its would-be
                    // EffectConfig digest could mark a never-evaluated
                    // config as seen. Give such vectors their own
                    // exact-vector class instead.
                    if profile.constraints().check(flags).is_empty() {
                        EffectConfig::from_flags(profile, flags).stable_digest() as u64
                    } else {
                        let mut h = minicc::StableHasher::with_seed(u64::MAX);
                        flags.iter().for_each(|&b| h.write_bool(b));
                        h.finish()
                    }
                },
                &self.config.termination,
            )
        } else {
            ga.run_batched(&engine, repair, &self.config.termination)
        };
        let run: GaRun = match run_result {
            Ok(run) => run,
            Err(_abort) => {
                // The evaluation substrate died mid-run. The engine is
                // infallible without an executor, so the abort is the
                // executor's, which recorded the typed failure when it
                // aborted the batch: surface that (full source chain).
                // Whoever owns the farm tears it down and lives on.
                let cause = executor
                    .and_then(ServiceExecutor::take_failure)
                    .unwrap_or_else(|| {
                        Arc::new(evald::EvaldError::Protocol(
                            "evaluation aborted without a recorded service failure",
                        ))
                    });
                return Err(TuneError::Service(cause));
            }
        };
        let baseline = engine.baseline_binary().clone();
        let baseline_from_store = engine.baseline_from_store();
        let best_key = engine.binary_key(&run.best_genes);
        let stats = engine.stats();
        let (mut store_after, artifacts_after) = engine.into_stores();
        // Before the save, so a compiled winner is queued into it. An
        // error waits until the stores are saved.
        let best = self.best_binary(module, &run.best_genes, store_after.as_mut().zip(best_key));
        // The engine recorded every result itself, wherever it was
        // computed (the single writer: clients never touch the file).
        // Stage artifacts are another matter: farm workers compile in
        // their own address spaces, so their artifacts exist nowhere
        // else — without the fold below a process-worker run would
        // persist no artifacts and the next warm start would silently
        // rerun full pipelines. They come from the executor that ran
        // the misses.
        let farm_artifacts = executor.map(ServiceExecutor::take_artifacts);
        let persistence = store_after.map(|mut store| {
            let new_entries = store.pending_len();
            let (save_error, lock_skipped) = match store.save() {
                Ok(SaveOutcome::Written) => (None, false),
                Ok(SaveOutcome::SkippedLocked) => (None, true),
                Err(e) => (Some(e.to_string()), false),
            };
            PersistSummary {
                path: store.path().expect("store built from a path").to_path_buf(),
                loaded_entries,
                new_entries,
                degraded: save_error.is_some(),
                save_error,
                lock_skipped,
                baseline_from_store,
                best_from_store: matches!(best, Ok((_, true))),
            }
        });
        // The artifact save runs after the fitness save on purpose: the
        // first fitness save creates the directory the artifact log
        // appends into. A skip (directory still missing, lock
        // contended) only costs future warm-starts, never correctness.
        if let Some(mut artifacts) = artifacts_after {
            if let Some(wire) = farm_artifacts {
                // Client-produced stage artifacts, folded through the
                // same single writer into the store this run already
                // indexed (insert dedups against live and pending
                // entries, so thread-mode runs — where the server engine
                // may have produced the same artifacts — stay
                // idempotent).
                fold_artifacts(&mut artifacts, wire);
            }
            let _ = artifacts.save();
        }
        let prior_summary = prior.map(|p| {
            let seed_best_ncd = run
                .history
                .iter()
                .filter(|r| r.seeded)
                .map(|r| r.fitness)
                .fold(None, |acc: Option<f64>, f| {
                    Some(acc.map_or(f, |a| a.max(f)))
                });
            PriorSummary {
                mode: self.config.priors,
                mined_records: p.mined_records,
                seeds_injected: run.seeded_evaluations,
                source_module: p.source_module,
                source_distance: p.source_distance,
                seed_best_ncd,
                seed_matched_best: seed_best_ncd
                    .is_some_and(|f| f.to_bits() == run.best_fitness.to_bits()),
                biased_flags: if self.config.priors == PriorMode::SeedAndBias {
                    p.biased_flag_count(prior_cfg)
                } else {
                    0
                },
            }
        });
        let (registry, spans) = match telemetry {
            Some((registry, tracer)) => (Some(registry), tracer.drain()),
            None => (None, Vec::new()),
        };
        let (best_binary, _) = best?;
        Ok(self.finish(
            run,
            best_binary,
            baseline,
            stats,
            persistence,
            prior_summary,
            registry,
            spans,
        ))
    }

    /// Reference path: evaluate one individual at a time through the
    /// closure protocol, with no parallelism and no cache — the shape of
    /// the original per-individual loop. A fixed seed yields the same
    /// best flag vector as [`Tuner::tune`]; the engine path is the
    /// batched/parallel refactoring of exactly this computation.
    ///
    /// # Errors
    ///
    /// See [`TuneError`].
    pub fn tune_sequential(&self, module: &Module) -> Result<TuneResult, TuneError> {
        let baseline = self
            .compiler
            .compile_preset(module, OptLevel::O0, self.config.arch)
            .map_err(TuneError::Baseline)?;
        let ncd = NcdBaseline::new(binrep::encode_binary(&baseline));
        let profile = self.compiler.profile();
        let module_size = module.size();
        let mut ga = Ga::new(profile.n_flags(), self.config.ga.clone(), self.config.seed);
        let run: GaRun = ga.run(
            |flags| {
                let cost = self.compiler.simulated_compile_seconds(module_size, flags);
                match self.compiler.compile(module, flags, self.config.arch) {
                    Ok(bin) => (ncd.score(&binrep::encode_binary(&bin)), cost),
                    Err(_) => (FAILED_COMPILE_PENALTY, cost),
                }
            },
            |flags, seed| profile.constraints().repair(flags, seed),
            &self.config.termination,
        );
        let (best_binary, _) = self.best_binary(module, &run.best_genes, None)?;
        Ok(self.finish(
            run,
            best_binary,
            baseline,
            EngineStats::default(),
            None,
            None,
            None,
            Vec::new(),
        ))
    }

    /// The winner's binary, and whether it came from `store`: the blob
    /// filed under the key when the store holds an intact one, else
    /// `genes` compiled (and queued into the store under the key). The
    /// key is `None` for a vector that violates the profile's
    /// constraints, which fails to compile as before.
    fn best_binary(
        &self,
        module: &Module,
        genes: &[bool],
        mut store: Option<(&mut FitnessStore, StoreKey)>,
    ) -> Result<(Binary, bool), TuneError> {
        if let Some(bin) = store.as_ref().and_then(|(s, key)| s.binary(key)) {
            return Ok((bin, true));
        }
        let bin = self
            .compiler
            .compile(module, genes, self.config.arch)
            .map_err(TuneError::BestRecompile)?;
        if let Some((store, key)) = &mut store {
            store.insert_binary(*key, &bin);
        }
        Ok((bin, false))
    }

    /// Shared post-processing: fill the iteration database and assemble
    /// the result.
    #[allow(clippy::too_many_arguments)] // internal assembly seam
    fn finish(
        &self,
        run: GaRun,
        best_binary: Binary,
        baseline: Binary,
        engine_stats: EngineStats,
        persistence: Option<PersistSummary>,
        prior: Option<PriorSummary>,
        registry: Option<Arc<btel::Registry>>,
        spans: Vec<btel::SpanRecord>,
    ) -> TuneResult {
        let mut db = Database::new();
        for rec in &run.history {
            db.push(IterationRow {
                iteration: rec.iteration,
                ncd: rec.fitness,
                best_ncd: rec.best_so_far,
                elapsed_seconds: rec.elapsed_seconds,
                flags: rec.genes.clone(),
                cache_hit: rec.cache_hit,
                persistent_hit: rec.persistent_hit,
                ast_reused: rec.ast_reused,
                lower_reused: rec.lower_reused,
                seeded_from_prior: rec.seeded,
                wall_seconds: rec.wall_seconds,
                ast_produce_seconds: rec.ast_produce_seconds,
            });
        }
        TuneResult {
            best_flags: run.best_genes,
            best_ncd: run.best_fitness,
            iterations: run.evaluations,
            stopped_by: run.stopped_by,
            simulated_hours: run.elapsed_seconds / 3600.0,
            best_binary,
            baseline,
            db,
            engine_stats,
            skipped_duplicates: run.skipped_duplicates,
            persistence,
            prior,
            registry,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-test twin of `testutil::small_tuner` — unusable here
    /// directly: inside the crate's own unit tests, `testutil`'s
    /// `bintuner` is the *dependency* build, whose `TunerConfig` is a
    /// distinct type from `crate::TunerConfig`. Integration suites use
    /// the shared fixture.
    fn small_config(max_evals: usize) -> TunerConfig {
        TunerConfig {
            termination: Termination {
                max_evaluations: max_evals,
                min_evaluations: max_evals / 2,
                plateau_window: max_evals / 3,
                ..Default::default()
            },
            ga: GaParams {
                population: 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn tuner_beats_default_presets() {
        let bench = corpus::by_name("429.mcf").unwrap();
        let tuner = Tuner::new(small_config(120));
        let result = tuner.tune(&bench.module).unwrap();
        // The tuned NCD must beat every default preset's NCD.
        let ncd = lzc::NcdBaseline::new(binrep::encode_binary(&result.baseline));
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::Os] {
            let bin = tuner
                .compiler()
                .compile_preset(&bench.module, level, Arch::X86)
                .unwrap();
            let d = ncd.score(&binrep::encode_binary(&bin));
            assert!(
                result.best_ncd >= d - 1e-9,
                "{level}: preset {d} > tuned {}",
                result.best_ncd
            );
        }
        assert_eq!(result.iterations, result.db.rows().len());
        assert!(result.simulated_hours > 0.0);
    }

    #[test]
    fn tuned_binary_preserves_semantics() {
        let bench = corpus::by_name("605.mcf_s").unwrap();
        let tuner = Tuner::new(small_config(80));
        let result = tuner.tune(&bench.module).unwrap();
        for inputs in &bench.test_inputs {
            let base = emu::Machine::new(&result.baseline)
                .run(&[], inputs, 5_000_000)
                .unwrap();
            let tuned = emu::Machine::new(&result.best_binary)
                .run(&[], inputs, 5_000_000)
                .unwrap();
            assert_eq!(base.output, tuned.output, "inputs {inputs:?}");
        }
    }

    #[test]
    fn tuning_is_deterministic() {
        // Two back-to-back runs with an identical config must produce
        // identical *trajectories* — every iteration's flags, fitness
        // bits, and charged time — not merely the same winner. (Measured
        // wall_seconds is telemetry and deliberately excluded: it is the
        // one field wall-clock is allowed to touch.)
        let bench = corpus::by_name("648.exchange2_s").unwrap();
        let r1 = Tuner::new(small_config(60)).tune(&bench.module).unwrap();
        let r2 = Tuner::new(small_config(60)).tune(&bench.module).unwrap();
        assert_eq!(r1.best_flags, r2.best_flags);
        assert_eq!(r1.best_ncd.to_bits(), r2.best_ncd.to_bits());
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.stopped_by, r2.stopped_by);
        assert_eq!(r1.db.rows().len(), r2.db.rows().len());
        for (a, b) in r1.db.rows().iter().zip(r2.db.rows()) {
            assert_eq!(a.flags, b.flags, "iteration {}", a.iteration);
            assert_eq!(a.ncd.to_bits(), b.ncd.to_bits());
            assert_eq!(a.best_ncd.to_bits(), b.best_ncd.to_bits());
            assert_eq!(a.elapsed_seconds.to_bits(), b.elapsed_seconds.to_bits());
            assert_eq!(a.cache_hit, b.cache_hit);
            assert_eq!(a.seeded_from_prior, b.seeded_from_prior);
        }
    }

    #[test]
    fn best_flags_are_constraint_valid() {
        let bench = corpus::by_name("473.astar").unwrap();
        let tuner = Tuner::new(small_config(60));
        let result = tuner.tune(&bench.module).unwrap();
        assert!(tuner
            .compiler()
            .profile()
            .constraints()
            .is_valid(&result.best_flags));
    }

    #[test]
    fn parallel_engine_matches_sequential_path() {
        // Same seed: the cached engine at every worker count and the
        // closure-based sequential path must agree on the entire run —
        // best flags, fitness, iteration count, and every recorded NCD.
        let bench = corpus::by_name("462.libquantum").unwrap();
        let seq = Tuner::new(small_config(70))
            .tune_sequential(&bench.module)
            .unwrap();
        assert_eq!(seq.engine_stats.cache_hits, 0);
        for workers in [1, 2, 4, 8] {
            let mut config = small_config(70);
            config.workers = workers;
            let par = Tuner::new(config).tune(&bench.module).unwrap();
            assert_eq!(par.best_flags, seq.best_flags, "{workers} workers");
            assert_eq!(par.best_ncd, seq.best_ncd);
            assert_eq!(par.iterations, seq.iterations);
            assert_eq!(par.stopped_by, seq.stopped_by);
            assert_eq!(par.db.rows().len(), seq.db.rows().len());
            for (a, b) in par.db.rows().iter().zip(seq.db.rows()) {
                assert_eq!(a.ncd, b.ncd, "{workers} workers, iteration {}", a.iteration);
                assert_eq!(
                    a.flags, b.flags,
                    "{workers} workers, iteration {}",
                    a.iteration
                );
                assert_eq!(a.elapsed_seconds, b.elapsed_seconds);
            }
            // The engine path must actually have deduplicated something.
            assert!(par.engine_stats.cache_hits > 0);
        }
    }

    #[test]
    fn cache_hit_is_bit_identical_to_cold_evaluation() {
        use genetic::Evaluator;
        let bench = corpus::by_name("429.mcf").unwrap();
        let compiler = Compiler::new(CompilerKind::Gcc);
        let engine = FitnessEngine::new(
            &compiler,
            &bench.module,
            Arch::X86,
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let genome = compiler.profile().preset(OptLevel::O2);
        let cold = engine
            .evaluate_batch(std::slice::from_ref(&genome))
            .unwrap();
        let warm = engine
            .evaluate_batch(std::slice::from_ref(&genome))
            .unwrap();
        assert!(!cold[0].cache_hit);
        assert!(warm[0].cache_hit);
        // Bit-identical, not approximately equal.
        assert_eq!(cold[0].fitness.to_bits(), warm[0].fitness.to_bits());
        assert_eq!(
            cold[0].cost_seconds.to_bits(),
            warm[0].cost_seconds.to_bits()
        );
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn within_batch_duplicates_are_cache_hits() {
        use genetic::Evaluator;
        let bench = corpus::by_name("473.astar").unwrap();
        let compiler = Compiler::new(CompilerKind::Gcc);
        let engine = FitnessEngine::new(
            &compiler,
            &bench.module,
            Arch::X86,
            EngineConfig {
                workers: 4,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let a = compiler.profile().preset(OptLevel::O1);
        let b = compiler.profile().preset(OptLevel::O3);
        let batch = vec![a.clone(), b.clone(), a.clone(), b, a];
        let evals = engine.evaluate_batch(&batch).unwrap();
        assert_eq!(
            evals.iter().map(|e| e.cache_hit).collect::<Vec<_>>(),
            vec![false, false, true, true, true]
        );
        assert_eq!(evals[0].fitness.to_bits(), evals[2].fitness.to_bits());
        assert_eq!(evals[0].fitness.to_bits(), evals[4].fitness.to_bits());
        assert_eq!(engine.cache_len(), 2);
    }

    #[test]
    fn failed_compile_is_penalized_not_fatal() {
        use genetic::Evaluator;
        let bench = corpus::by_name("429.mcf").unwrap();
        let compiler = Compiler::new(CompilerKind::Gcc);
        let engine = FitnessEngine::new(
            &compiler,
            &bench.module,
            Arch::X86,
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // -fpartial-inlining without -finline-functions violates the
        // profile's documented constraints (fed directly, bypassing
        // repair, as a hostile genome).
        let mut bad = vec![false; compiler.profile().n_flags()];
        bad[compiler.profile().flag_index("-fpartial-inlining").unwrap()] = true;
        let good = compiler.profile().preset(OptLevel::O2);
        let evals = engine.evaluate_batch(&[bad, good]).unwrap();
        assert_eq!(evals[0].fitness, FAILED_COMPILE_PENALTY);
        assert!(evals[1].fitness > evals[0].fitness);
        assert_eq!(engine.stats().failed_compiles, 1);
    }
}
