//! The traced run: one extra run per workload that times, from this
//! file, the calls into each layer's public functions, and never mixes
//! into the timed runs.
//!
//! For `cold_tune` and `warm_retune` the traced pipeline assembles the
//! tuning pipeline from the same public parts `Tuner::tune` uses, with a
//! span around each call, and every job is also run through
//! `Tuner::tune` so outcomes and engine counts can be compared and the
//! tracing overhead measured. For `daemon_mix` the tenants' `submit` and
//! `fetch_result` calls are traced against a second daemon, and each
//! job's batches are then replayed on a private farm of the same shape.
//! The engine's worker pool hides the compile stages, so afterwards
//! every miss is replayed stage by stage.

use crate::jobs::{draw, in_process_jobs, tuner_config, Corpus, Gate, Job, Outcome};
use crate::timed::{
    check_daemon_job, daemon_setup, dir_digest, farm_config, run_tenants, walk, warm_setup, Env,
};
use binrep::Binary;
use bintuner::service::ServiceHandle;
use bintuner::{
    ArtifactStore, AstArtifactKey, EngineConfig, EngineStats, FitnessEngine, FitnessStore,
    FlagBits, LowerArtifactKey, MissExecutor, MissResult, ServiceConfig, ServiceSummary, StoreKey,
    StoredFitness, TunerConfig,
};
use genetic::{Eval, EvalAbort, Evaluator, Ga};
use lzc::NcdBaseline;
use minicc::ast::Module;
use minicc::{Compiler, OptLevel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Rounds of the `cold_tune` job list in a traced run (24 jobs).
const TRACE_ROUNDS: usize = 8;
/// Rounds of the `daemon_mix` job list in a traced run (24 jobs).
const TRACE_DAEMON_ROUNDS: usize = 4;
/// Passes over the warm jobs in a traced run.
const TRACE_WARM_REPS: usize = 8;

/// Every per-layer metric, in output order, with its unit. The unit
/// says what a sum is divided by: replayed misses (`/miss`), traced jobs
/// (`/job`), or nothing (`ratio`).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("minicc.check_s", "s/miss"),
    ("minicc.ast_s", "s/miss"),
    ("minicc.lower_s", "s/miss"),
    ("minicc.mir_s", "s/miss"),
    ("binrep.encode_s", "s/miss"),
    ("binrep.encoded_bytes", "B/miss"),
    ("lzc.score_s", "s/miss"),
    ("lzc.scored_bytes", "B/miss"),
    ("minicc.baseline_s", "s/job"),
    ("minicc.final_compile_s", "s/job"),
    ("engine.batch_s", "s/job"),
    ("engine.evaluations", "count/job"),
    ("engine.memo_hits", "count/job"),
    ("engine.persistent_hits", "count/job"),
    ("engine.compiles", "count/job"),
    ("engine.full_compiles", "count/job"),
    ("engine.ast_reuse", "count/job"),
    ("engine.lower_reuse", "count/job"),
    ("engine.failed_compiles", "count/job"),
    ("engine.hit_ratio", "ratio"),
    ("engine.stage_reuse_ratio", "ratio"),
    ("genetic.breed_s", "s/job"),
    ("genetic.batches", "count/job"),
    ("satz.repair_s", "s/job"),
    ("satz.repairs", "count/job"),
    ("store.fitness_load_s", "s/job"),
    ("store.artifact_load_s", "s/job"),
    ("store.fitness_save_s", "s/job"),
    ("store.artifact_save_s", "s/job"),
    ("store.artifact_log_bytes", "B/job"),
    ("store.bytes_written", "B/job"),
    ("evald.execute_s", "s/job"),
    ("evald.shards", "count/job"),
    ("evald.redispatched", "count/job"),
    ("evald.duplicate_results", "count/job"),
    ("farm.launch_s", "s/job"),
    ("farm.finish_s", "s/job"),
    ("farm.launches", "count/job"),
    ("daemon.submit_s", "s/job"),
    ("daemon.queue_s", "s/job"),
    ("daemon.job_s", "s/job"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Span names whose summed duration is a per-job metric.
const SPAN_METRICS: [(&str, &str); 11] = [
    ("engine.batch", "engine.batch_s"),
    ("satz.repair", "satz.repair_s"),
    ("minicc.final_compile", "minicc.final_compile_s"),
    ("store.fitness_load", "store.fitness_load_s"),
    ("store.artifact_load", "store.artifact_load_s"),
    ("store.fitness_save", "store.fitness_save_s"),
    ("store.artifact_save", "store.artifact_save_s"),
    ("evald.execute", "evald.execute_s"),
    ("farm.launch", "farm.launch_s"),
    ("farm.finish", "farm.finish_s"),
    ("daemon.submit", "daemon.submit_s"),
];

/// One recorded span. Spans of one job share `job`.
#[derive(Debug, Clone)]
pub struct Span {
    pub job: usize,
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

#[derive(Default)]
struct RecState {
    spans: Vec<Span>,
    /// Open spans of the traced pipeline's thread, innermost last.
    open: Vec<usize>,
    job: usize,
}

/// In-memory span recorder; written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<RecState>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            state: Mutex::new(RecState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecState> {
        self.state.lock().expect("span recorder poisoned")
    }

    /// Spans recorded with [`Recorder::span`] belong to `job` from now on.
    pub fn begin_job(&self, job: usize) {
        self.lock().job = job;
    }

    /// Time `f` as a span nested in the innermost open one. Only the
    /// traced pipeline's own thread opens spans this way.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut s = self.lock();
            let span = Span {
                job: s.job,
                name,
                start: 0.0,
                end: 0.0,
                parent: s.open.last().copied(),
            };
            s.spans.push(span);
            let idx = s.spans.len() - 1;
            s.open.push(idx);
            s.spans[idx].start = self.epoch.elapsed().as_secs_f64();
            idx
        };
        let out = f();
        let mut s = self.lock();
        s.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        s.open.pop();
        out
    }

    /// Record a finished top-level span (any thread).
    pub fn record(&self, job: usize, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.lock().spans.push(Span {
            job,
            name,
            start: at(start),
            end: at(end),
            parent: None,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// The engine behind a span per `evaluate_batch`.
struct TracedEvaluator<'a, 'e> {
    engine: &'a FitnessEngine<'e>,
    rec: &'a Recorder,
}

impl Evaluator for TracedEvaluator<'_, '_> {
    fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort> {
        self.rec
            .span("engine.batch", || self.engine.evaluate_batch(genomes))
    }
}

/// A farm behind a span per `execute`.
struct TracedExecutor<'a> {
    farm: &'a ServiceHandle,
    rec: &'a Recorder,
}

impl MissExecutor for TracedExecutor<'_> {
    fn execute(&self, misses: &[Vec<bool>]) -> Result<Vec<MissResult>, EvalAbort> {
        self.rec.span("evald.execute", || self.farm.execute(misses))
    }
}

/// One fresh evaluation of a traced job, for the stage replay.
struct Miss {
    flags: Vec<bool>,
    ast_reused: bool,
    lower_reused: bool,
    fitness: f64,
}

/// What the traced pipeline returns for one job.
struct TracedJob {
    outcome: Outcome,
    stats: EngineStats,
    misses: Vec<Miss>,
    best: Binary,
    service: Option<ServiceSummary>,
    bytes_written: u64,
    artifact_log_bytes: u64,
}

/// File sizes and inodes under a store directory.
fn store_files(dir: &Path) -> BTreeMap<std::path::PathBuf, (u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    let mut files = Vec::new();
    let _ = walk(dir, &mut files);
    files
        .into_iter()
        .filter_map(|f| std::fs::metadata(&f).ok().map(|m| (f, (m.len(), m.ino()))))
        .collect()
}

/// Bytes the saves wrote: appended bytes of files kept in place, whole
/// files for files created or replaced.
fn bytes_written(
    before: &BTreeMap<std::path::PathBuf, (u64, u64)>,
    after: &BTreeMap<std::path::PathBuf, (u64, u64)>,
) -> u64 {
    after
        .iter()
        .map(|(f, &(len, ino))| match before.get(f) {
            Some(&(old, old_ino)) if old_ino == ino && old <= len => len - old,
            _ => len,
        })
        .sum()
}

/// The tuning pipeline of `Tuner::tune`, assembled from public parts
/// with a span around each call: store loads, farm launch, engine build
/// (the `-O0` baseline compile), GA run with traced batches and repairs,
/// farm finish, store saves and the final compile.
fn traced_tune(
    rec: &Recorder,
    module: &Module,
    cfg: &TunerConfig,
    farm: Option<&ServiceConfig>,
) -> Result<TracedJob, String> {
    let compiler = Compiler::new(cfg.compiler);
    let engine_config = EngineConfig {
        workers: cfg.workers,
        artifact_cache: cfg.artifact_cache,
        ..EngineConfig::default()
    };
    let store = cfg.cache_path.as_ref().map(|p| {
        rec.span("store.fitness_load", || {
            let mut s = FitnessStore::load(p);
            black_box(s.len());
            s
        })
    });
    let service = match farm {
        Some(f) => Some(
            rec.span("farm.launch", || {
                ServiceHandle::launch_with(
                    f,
                    cfg.compiler,
                    module,
                    cfg.arch,
                    cfg.artifact_cache,
                    None,
                )
            })
            .map_err(|e| format!("farm launch: {e}"))?,
        ),
        None => None,
    };
    let executor = service.as_ref().map(|farm| TracedExecutor { farm, rec });
    let mut engine = rec
        .span("engine.build", || match store {
            Some(s) => FitnessEngine::with_store(&compiler, module, cfg.arch, engine_config, s),
            None => FitnessEngine::new(&compiler, module, cfg.arch, engine_config),
        })
        .map_err(|e| e.to_string())?;
    if let Some(e) = &executor {
        engine.set_executor(e);
    }
    let mut artifact_log_bytes = 0;
    if let (true, Some(path)) = (cfg.artifact_cache, &cfg.cache_path) {
        let artifacts = rec.span("store.artifact_load", || ArtifactStore::load(path));
        artifact_log_bytes = std::fs::metadata(path.join("artifacts.log")).map_or(0, |m| m.len());
        engine.set_artifact_store(artifacts);
    }
    let profile = compiler.profile();
    let evaluator = TracedEvaluator {
        engine: &engine,
        rec,
    };
    let repair = |flags: &[bool], seed: u64| {
        rec.span("satz.repair", || profile.constraints().repair(flags, seed))
    };
    let run = rec
        .span("genetic.run", || {
            Ga::new(profile.n_flags(), cfg.ga.clone(), cfg.seed).run_batched(
                &evaluator,
                repair,
                &cfg.termination,
            )
        })
        .map_err(|e| format!("evaluation aborted: {e}"))?;
    // Recovering the stores also drops the engine and its caches.
    let (mut stats, (fitness_store, artifact_store)) = rec.span("engine.into_stores", || {
        (engine.stats(), engine.into_stores())
    });
    let farm_artifacts = service.as_ref().map(ServiceHandle::take_artifacts);
    let finished = service.map(|s| rec.span("farm.finish", || s.finish()));
    let before = cfg.cache_path.as_deref().map(store_files);
    if let Some(mut store) = fitness_store {
        for m in finished.iter().flat_map(|(_, merged)| merged) {
            store.insert(
                StoreKey {
                    module_hash: m.module_hash,
                    compiler: m.compiler,
                    arch: m.arch,
                    effect_digest: m.effect_digest,
                },
                StoredFitness {
                    fitness: f64::from_bits(m.fitness_bits),
                    failed: m.failed,
                    flags: FlagBits::from_bools(&m.flags),
                    generation: 0,
                },
            );
        }
        rec.span("store.fitness_save", || store.save())
            .map_err(|e| format!("fitness store save: {e}"))?;
    }
    if let Some(mut artifacts) = artifact_store {
        for a in farm_artifacts.iter().flat_map(|(ast, _)| ast) {
            let key = AstArtifactKey {
                body_hash: a.body_hash,
                compiler: a.compiler,
                ast_digest: a.ast_digest,
            };
            artifacts.insert_ast(key, f64::from_bits(a.cost_bits), a.blob.clone());
        }
        for a in farm_artifacts.iter().flat_map(|(_, lower)| lower) {
            let key = LowerArtifactKey {
                body_hash: a.body_hash,
                compiler: a.compiler,
                arch: a.arch,
                ast_digest: a.ast_digest,
                lower_digest: a.lower_digest,
            };
            artifacts.insert_lower(key, f64::from_bits(a.cost_bits), a.blob.clone());
        }
        // As in the tuner, a skipped artifact save only costs later warm
        // starts.
        let _ = rec.span("store.artifact_save", || artifacts.save());
    }
    let bytes_written = match (&before, cfg.cache_path.as_deref()) {
        (Some(before), Some(dir)) => bytes_written(before, &store_files(dir)),
        _ => 0,
    };
    let service = finished.map(|(summary, _)| summary);
    if let Some(s) = &service {
        stats.duplicate_results = s.duplicate_results;
    }
    let best = rec
        .span("minicc.final_compile", || {
            compiler.compile(module, &run.best_genes, cfg.arch)
        })
        .map_err(|e| format!("final compile: {e}"))?;
    let misses = run
        .history
        .iter()
        .filter(|r| !r.cache_hit && !r.persistent_hit)
        .map(|r| Miss {
            flags: r.genes.clone(),
            ast_reused: r.ast_reused,
            lower_reused: r.lower_reused,
            fitness: r.fitness,
        })
        .collect();
    Ok(TracedJob {
        outcome: Outcome::new(&run.best_genes, run.best_fitness, run.evaluations),
        stats,
        misses,
        best,
        service,
        bytes_written,
        artifact_log_bytes,
    })
}

/// The engine counts `Tuner::tune` and the traced pipeline must agree on.
fn counts(s: &EngineStats) -> [usize; 11] {
    [
        s.evaluations,
        s.cache_hits,
        s.persistent_hits,
        s.compiles,
        s.full_compiles,
        s.ast_reuse,
        s.lower_reuse,
        s.store_ast_hits,
        s.store_lower_hits,
        s.failed_compiles,
        s.duplicate_results,
    ]
}

/// Per-layer sums over a traced run, normalised when printed.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    /// Jobs that ran the traced pipeline (or, for `daemon_mix`, the farm
    /// replay).
    pub jobs: usize,
    misses: usize,
    /// Bases and other lines printed beside the metrics.
    pub notes: Vec<String>,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    fn add_job(&mut self, t: &TracedJob) {
        self.jobs += 1;
        let s = &t.stats;
        for (name, v) in [
            ("engine.evaluations", s.evaluations),
            ("engine.memo_hits", s.cache_hits),
            ("engine.persistent_hits", s.persistent_hits),
            ("engine.compiles", s.compiles),
            ("engine.full_compiles", s.full_compiles),
            ("engine.ast_reuse", s.ast_reuse),
            ("engine.lower_reuse", s.lower_reuse),
            ("engine.failed_compiles", s.failed_compiles),
        ] {
            self.add(name, v as f64);
        }
        if let Some(sv) = &t.service {
            self.add("evald.shards", sv.shards as f64);
            self.add("evald.redispatched", sv.redispatched_shards as f64);
            self.add("evald.duplicate_results", sv.duplicate_results as f64);
        }
        self.add("store.bytes_written", t.bytes_written as f64);
        self.add("store.artifact_log_bytes", t.artifact_log_bytes as f64);
    }

    /// Replay a job's misses stage by stage (skipping the stages its
    /// records mark as reused), plus its `-O0` baseline compile. Every
    /// replayed score must equal the engine's bit for bit.
    fn replay(&mut self, module: &Module, misses: &[Miss]) -> Result<(), String> {
        let cc = Compiler::new(minicc::CompilerKind::Gcc);
        let arch = binrep::Arch::X86;
        let t = Instant::now();
        let baseline = cc
            .compile_preset(module, OptLevel::O0, arch)
            .map_err(|e| e.to_string())?;
        self.add("minicc.baseline_s", t.elapsed().as_secs_f64());
        let baseline = NcdBaseline::new(binrep::encode_binary(&baseline));
        for m in misses {
            self.misses += 1;
            let t = Instant::now();
            let eff = cc.check(module, &m.flags);
            self.add("minicc.check_s", t.elapsed().as_secs_f64());
            let Ok(eff) = eff else { continue };
            let t = Instant::now();
            let ast = black_box(cc.stage_ast(module, &eff));
            if !m.ast_reused && !m.lower_reused {
                self.add("minicc.ast_s", t.elapsed().as_secs_f64());
            }
            let t = Instant::now();
            let lowered = black_box(cc.stage_lower(&ast, &eff, arch));
            if !m.lower_reused {
                self.add("minicc.lower_s", t.elapsed().as_secs_f64());
            }
            let t = Instant::now();
            let bin = black_box(cc.stage_mir(lowered, &eff));
            self.add("minicc.mir_s", t.elapsed().as_secs_f64());
            let t = Instant::now();
            let bytes = black_box(binrep::encode_binary(&bin));
            self.add("binrep.encode_s", t.elapsed().as_secs_f64());
            self.add("binrep.encoded_bytes", bytes.len() as f64);
            let t = Instant::now();
            let score = black_box(baseline.score(&bytes));
            self.add("lzc.score_s", t.elapsed().as_secs_f64());
            self.add(
                "lzc.scored_bytes",
                (2 * bytes.len() + baseline.data().len()) as f64,
            );
            if score.to_bits() != m.fitness.to_bits() {
                return Err(format!(
                    "replayed NCD {score} differs from the engine's {}",
                    m.fitness
                ));
            }
        }
        Ok(())
    }

    /// Fold the recorded spans: summed durations by name, GA self time,
    /// batch and repair counts, and coverage of `primary` jobs (id, start,
    /// end) by their top-level spans.
    fn fold_spans(&mut self, spans: &[Span], primary: &[(usize, f64, f64)]) {
        let mut child_s = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end - s.start;
            }
        }
        for (s, child) in spans.iter().zip(&child_s) {
            let d = s.end - s.start;
            if let Some((_, metric)) = SPAN_METRICS.iter().find(|(n, _)| *n == s.name) {
                self.add(metric, d);
            }
            match s.name {
                "genetic.run" => self.add("genetic.breed_s", d - child),
                "engine.batch" => self.add("genetic.batches", 1.0),
                "satz.repair" => self.add("satz.repairs", 1.0),
                _ => {}
            }
        }
        let mut covered = 0.0;
        let mut wall = 0.0;
        let mut gaps: BTreeMap<String, f64> = BTreeMap::new();
        for &(job, start, end) in primary {
            let mut top: Vec<&Span> = spans
                .iter()
                .filter(|s| s.job == job && s.parent.is_none())
                .collect();
            top.sort_by(|a, b| a.start.total_cmp(&b.start));
            wall += end - start;
            let mut at = (start, "job start");
            for s in top {
                covered += s.end - s.start;
                *gaps.entry(format!("{} .. {}", at.1, s.name)).or_default() +=
                    (s.start - at.0).max(0.0);
                at = (s.end, s.name);
            }
            *gaps.entry(format!("{} .. job end", at.1)).or_default() += (end - at.0).max(0.0);
        }
        let coverage = covered / wall;
        self.add("trace.coverage_ratio", coverage);
        let (gap, gap_s) = gaps
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or_default();
        self.notes.push(format!(
            "trace.coverage_ratio base: {covered:.4} s in top-level spans of {wall:.4} s job wall \
             ({} jobs); largest unattributed gap: {gap} ({gap_s:.4} s)",
            primary.len()
        ));
    }

    /// Every per-layer metric, normalised, with the bases noted.
    pub fn metrics(&mut self) -> Vec<(&'static str, f64, &'static str)> {
        let evals = self.get("engine.evaluations");
        let hits = self.get("engine.memo_hits") + self.get("engine.persistent_hits");
        let compiles = self.get("engine.compiles");
        let reused = self.get("engine.ast_reuse") + self.get("engine.lower_reuse");
        self.add("engine.hit_ratio", btel::ratio(hits, evals));
        self.add("engine.stage_reuse_ratio", btel::ratio(reused, compiles));
        self.notes.push(format!(
            "engine.hit_ratio base: {hits} hits of {evals} evaluations; \
             engine.stage_reuse_ratio base: {reused} reusing of {compiles} compiles"
        ));
        self.notes.push(format!(
            "per-job metrics over {} jobs; per-miss metrics over {} replayed misses",
            self.jobs, self.misses
        ));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let sum = self.get(name);
                let value = match unit {
                    "s/miss" | "B/miss" => btel::ratio(sum, self.misses as f64),
                    "ratio" => sum,
                    _ => btel::ratio(sum, self.jobs as f64),
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// Traced run of `workload`.
pub fn traced(workload: &str, env: &Env, gate: &mut Gate) -> Result<Layers, String> {
    let rec = Recorder::new();
    let mut layers = Layers::default();
    match workload {
        "cold_tune" => traced_in_process(env, gate, &rec, &mut layers, false)?,
        "warm_retune" => traced_in_process(env, gate, &rec, &mut layers, true)?,
        "daemon_mix" => traced_daemon(env, gate, &rec, &mut layers)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    let spans = rec.spans();
    let dir = env.work.parent().unwrap_or(&env.work).join("traces");
    let path = dir.join(format!("{workload}-seed{}.jsonl", env.seed));
    let jsonl: String = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"job\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{}}}\n",
                s.job,
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, jsonl))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    layers.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(layers)
}

/// `cold_tune` and `warm_retune`: each job through `Tuner::tune` (the
/// untraced reference) and through the traced pipeline.
fn traced_in_process(
    env: &Env,
    gate: &mut Gate,
    rec: &Recorder,
    layers: &mut Layers,
    warm: bool,
) -> Result<(), String> {
    let (corpus, jobs, store, cold) = if warm {
        let store = env.work.join("trace-warm-store");
        let (corpus, jobs, cold, _) = warm_setup(env, &store, gate, Instant::now())?;
        let all: Vec<Job> = (0..TRACE_WARM_REPS).flat_map(|_| jobs.clone()).collect();
        let cold: Vec<Outcome> = (0..TRACE_WARM_REPS).flat_map(|_| cold.clone()).collect();
        (corpus, all, Some(store), Some(cold))
    } else {
        (
            Corpus::generate(),
            in_process_jobs(env.seed, TRACE_ROUNDS),
            None,
            None,
        )
    };
    let before = store.as_deref().map(dir_digest).transpose()?;
    let (mut reference_s, mut traced_s) = (0.0, 0.0);
    let mut primary = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let mut cfg = tuner_config(job.ga_seed);
        cfg.cache_path = store.clone();
        let module = corpus.module(job.module);
        let untraced = || {
            let t = Instant::now();
            let r = bintuner::Tuner::new(cfg.clone()).tune(module);
            (r.map_err(|e| e.to_string()), t.elapsed().as_secs_f64())
        };
        // Alternate which of the two runs first, so neither always finds
        // the caches the other warmed.
        let early = (i % 2 == 0).then(untraced);
        rec.begin_job(i);
        let start = rec.now();
        let traced = traced_tune(rec, module, &cfg, None)?;
        let end = rec.now();
        let (reference, seconds) = early.unwrap_or_else(untraced);
        let reference = reference?;
        reference_s += seconds;
        traced_s += end - start;
        primary.push((i, start, end));
        let ref_outcome = Outcome::new(
            &reference.best_flags,
            reference.best_ncd,
            reference.iterations,
        );
        if traced.outcome != ref_outcome || counts(&traced.stats) != counts(&reference.engine_stats)
        {
            return Err(format!(
                "{}: traced pipeline diverged from Tuner::tune ({:?} vs {:?})",
                job.module, traced.stats, reference.engine_stats
            ));
        }
        if let Some(cold) = &cold {
            if traced.stats.compiles != 0 || traced.outcome != cold[i] {
                return Err(format!(
                    "{}: warm job is not a zero-compile replay",
                    job.module
                ));
            }
        }
        gate.check(&corpus, job, traced.outcome, &traced.best)?;
        layers.add_job(&traced);
        layers.replay(module, &traced.misses)?;
    }
    if let (Some(store), Some(before)) = (&store, before) {
        if dir_digest(store)? != before {
            return Err("warm jobs changed the store's files".into());
        }
    }
    layers.fold_spans(&rec.spans(), &primary);
    layers.add("trace.overhead_ratio", traced_s / reference_s - 1.0);
    layers.notes.push(format!(
        "trace.overhead_ratio base: traced pipeline {traced_s:.4} s vs Tuner::tune {reference_s:.4} s \
         over {} jobs; outcomes and engine counts equal on every job",
        jobs.len()
    ));
    Ok(())
}

fn daemon_job_seconds(daemon: &bintuner::DaemonHandle) -> (f64, u64) {
    let h = daemon.registry().histogram(
        "bintuner_daemon_job_seconds",
        "Wall time of each job from claim to terminal state.",
    );
    (h.sum_us() as f64 / 1e6, h.count())
}

/// `daemon_mix`: the same rounds on two daemons, alternating between an
/// untraced one and a traced one so both see the same host conditions;
/// then every traced job's batches replayed on a private farm.
fn traced_daemon(
    env: &Env,
    gate: &mut Gate,
    rec: &Recorder,
    layers: &mut Layers,
) -> Result<(), String> {
    let worker = env.worker_binary()?;
    let (corpus, _, reference, _) = daemon_setup(env, "tr-ref", &worker, gate)?;
    let (_, _, daemon, _) = daemon_setup(env, "tr", &worker, gate)?;
    let jobs = draw(env.seed, TRACE_DAEMON_ROUNDS);
    let (job_s0, count0) = daemon_job_seconds(&daemon);
    let launches0 = daemon.metrics_snapshot().farm_launches;
    let (mut reference_s, mut traced_s) = (0.0, 0.0);
    let mut results = Vec::new();
    let mut failure = None;
    for (r, round) in jobs.chunks(6).enumerate() {
        let t = Instant::now();
        let untraced = run_tenants(&reference, &corpus, round, None);
        reference_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traced = run_tenants(&daemon, &corpus, round, Some((rec, r * 6)));
        traced_s += t.elapsed().as_secs_f64();
        match untraced.and(traced) {
            Ok(round_results) => results.extend(round_results),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let (job_s1, count1) = daemon_job_seconds(&daemon);
    let launches = daemon.metrics_snapshot().farm_launches - launches0;
    reference.shutdown();
    daemon.shutdown();
    if let Some(e) = failure {
        return Err(e);
    }
    let spans = rec.spans();
    let primary: Vec<(usize, f64, f64)> = (0..jobs.len())
        .filter_map(|id| {
            let own: Vec<&Span> = spans.iter().filter(|s| s.job == id).collect();
            let start = own.iter().map(|s| s.start).reduce(f64::min)?;
            let end = own.iter().map(|s| s.end).reduce(f64::max)?;
            Some((id, start, end))
        })
        .collect();
    let latency: f64 = results.iter().map(|r| r.latency).sum();
    layers.add("daemon.job_s", job_s1 - job_s0);
    layers.add("daemon.queue_s", latency - (job_s1 - job_s0));
    layers.add("farm.launches", launches as f64);
    layers.notes.push(format!(
        "farm.launches base: {launches} launches for {} jobs ({} daemon jobs finished); \
         daemon.queue_s base: {latency:.4} s client latency minus {:.4} s daemon job time",
        results.len(),
        count1 - count0,
        job_s1 - job_s0
    ));

    let farm = farm_config(&worker);
    let store = env.work.join("trace-replay-store");
    let first_replay = jobs.len();
    let mut replay_primary = Vec::new();
    for (i, r) in results.iter().enumerate() {
        let o = r
            .outcome
            .as_ref()
            .map_err(|e| format!("daemon job failed: {e}"))?;
        check_daemon_job(&corpus, gate, &r.job, o)?;
        let mut cfg = tuner_config(r.job.ga_seed);
        cfg.cache_path = Some(store.clone());
        let module = corpus.module(r.job.module);
        rec.begin_job(first_replay + i);
        let start = rec.now();
        let replay = traced_tune(rec, module, &cfg, Some(&farm))?;
        replay_primary.push((first_replay + i, start, rec.now()));
        let daemon_outcome = Outcome::new(
            &o.best_flags,
            f64::from_bits(o.best_ncd_bits),
            o.iterations as usize,
        );
        let s = &replay.stats;
        if replay.outcome != daemon_outcome
            || (s.compiles as u64, s.persistent_hits as u64) != (o.compiles, o.persistent_hits)
        {
            return Err(format!(
                "{}: farm replay diverged from the daemon's job (compiles {} vs {}, \
                 persistent hits {} vs {})",
                r.job.module, s.compiles, o.compiles, s.persistent_hits, o.persistent_hits
            ));
        }
        layers.add_job(&replay);
        layers.replay(module, &replay.misses)?;
    }
    let all_spans = rec.spans();
    layers.fold_spans(&all_spans, &primary);
    // The farm replays' own coverage, for the layers below the wire.
    let mut replay_layers = Layers::default();
    replay_layers.fold_spans(&all_spans, &replay_primary);
    layers.notes.extend(
        replay_layers
            .notes
            .into_iter()
            .map(|n| format!("farm replay {n}")),
    );
    layers.add("trace.overhead_ratio", traced_s / reference_s - 1.0);
    layers.notes.push(format!(
        "trace.overhead_ratio base: traced closed loop {traced_s:.4} s vs untraced {reference_s:.4} s \
         over {} jobs; every farm replay equals its daemon job",
        results.len()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    #[test]
    fn benchmark_json_declares_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), PER_LAYER.len() + 7);
    }
}
