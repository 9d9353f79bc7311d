//! # genetic — the metaheuristic search engine of BinTuner
//!
//! Paper §4.1 / Appendix B: compiler optimization flags are encoded as a
//! chromosome-like boolean vector; selection, crossover and mutation evolve
//! the population under a fitness function (NCD), with a constraint-repair
//! step keeping every individual a *valid* optimization sequence. The four
//! tuned parameters — `mutation_rate`, `crossover_rate`,
//! `must_mutate_count`, `crossover_strength` — appear exactly as in the
//! paper, as do the three termination criteria (iteration cap, time budget,
//! diminishing returns on fitness growth).
//!
//! ## Example
//!
//! ```
//! use genetic::{Ga, GaParams, Termination};
//!
//! // Maximize the number of set bits. The fitness closure returns
//! // (fitness, cost-in-seconds); evaluations are the paper's
//! // "compilation iterations".
//! let mut ga = Ga::new(16, GaParams::default(), 42);
//! let run = ga.run(
//!     |genes| (genes.iter().filter(|&&g| g).count() as f64, 0.1),
//!     |genes, _| genes.to_vec(), // no constraints to repair
//!     &Termination { max_evaluations: 800, plateau_growth: 0.0, ..Default::default() },
//! );
//! assert!(run.best_fitness >= 14.0);
//! ```

#![warn(missing_docs)]

use rand::prelude::*;
use rand::rngs::StdRng;
use std::cell::RefCell;

/// The outcome of evaluating one genome.
///
/// Returned by [`Evaluator::evaluate_batch`]; carries the fitness itself
/// plus the bookkeeping the tuning loop records per iteration (paper
/// Table 1's cost accounting and the engine's cache telemetry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eval {
    /// Fitness of the genome (higher is better).
    pub fitness: f64,
    /// Modelled cost of the evaluation in seconds (the paper's
    /// "compilation iterations" time accounting).
    pub cost_seconds: f64,
    /// Measured wall-clock spent producing this evaluation, in seconds
    /// (0 when the evaluator does not measure, e.g. the closure shim).
    pub wall_seconds: f64,
    /// Wall-clock seconds this evaluation spent producing a *shared*
    /// stage-1 (AST) artifact on behalf of its whole effect family, in
    /// addition to its own compile. Recorded separately from
    /// `wall_seconds` so per-evaluation wall attribution stays truthful
    /// (0 for cache hits and for non-producer evaluations).
    pub ast_produce_seconds: f64,
    /// Whether the result came from the evaluator's *in-run* memoization
    /// cache rather than a fresh evaluation.
    pub cache_hit: bool,
    /// Whether the result was served from a *persistent* (cross-run)
    /// store — a warm-start hit that saved a real evaluation this
    /// process never performed. Disjoint from `cache_hit`.
    pub persistent_hit: bool,
    /// Fresh evaluation whose compile reused a cached stage-1 artifact
    /// (optimized AST) and ran only the later pipeline stages. Always
    /// `false` for cache hits and for evaluators without an artifact
    /// cache. Disjoint from `lower_reused`.
    pub ast_reused: bool,
    /// Fresh evaluation whose compile reused a cached stage-2 artifact
    /// (lowered machine code) and ran only the final, cheap stage.
    pub lower_reused: bool,
}

impl Eval {
    /// A plain evaluation: no cache, no measured wall time.
    pub fn new(fitness: f64, cost_seconds: f64) -> Eval {
        Eval {
            fitness,
            cost_seconds,
            wall_seconds: 0.0,
            ast_produce_seconds: 0.0,
            cache_hit: false,
            persistent_hit: false,
            ast_reused: false,
            lower_reused: false,
        }
    }
}

/// A typed abort from an [`Evaluator`]: the batch could not be scored
/// and never will be — the search cannot continue.
///
/// This is the error channel a remote evaluation service needs: losing
/// every worker mid-batch is not a per-genome failure (a failed compile
/// still yields a fitness penalty) but the death of the evaluation
/// substrate itself. In-process evaluators are infallible by
/// construction and never produce one.
#[derive(Debug)]
pub struct EvalAbort {
    message: String,
    source: Option<Box<dyn std::error::Error + Send + Sync>>,
}

impl EvalAbort {
    /// An abort with a message and no underlying cause.
    pub fn new(message: impl Into<String>) -> EvalAbort {
        EvalAbort {
            message: message.into(),
            source: None,
        }
    }

    /// An abort wrapping the error that killed the evaluator.
    pub fn with_source(
        message: impl Into<String>,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> EvalAbort {
        EvalAbort {
            message: message.into(),
            source: Some(Box::new(source)),
        }
    }
}

impl std::fmt::Display for EvalAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EvalAbort {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Batch fitness evaluation — the server/client split of the paper's
/// Figure 4 architecture.
///
/// The GA produces whole generations at a time; an `Evaluator` scores
/// them as one batch, which lets implementations fan the work out to a
/// worker pool, deduplicate repeated genomes, or ship batches to remote
/// compile farms. `evaluate_batch` must return exactly one [`Eval`] per
/// input genome, in input order, and must be deterministic in the genome
/// (the GA's reproducibility guarantee rests on that).
///
/// A *failed evaluation* (e.g. a rejected flag combination) is still an
/// `Ok` result — it scores the genome with a penalty fitness. `Err` is
/// reserved for [`EvalAbort`]: the evaluator itself is gone and the run
/// must stop. Evaluators with no failure mode simply always return `Ok`.
pub trait Evaluator {
    /// Score every genome in `genomes`, preserving order.
    ///
    /// # Errors
    ///
    /// [`EvalAbort`] when the evaluation substrate failed mid-batch and
    /// no results can ever be produced (the abort is propagated out of
    /// [`Ga::run_batched`] / [`Ga::run_batched_dedup`] unchanged).
    fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort>;
}

/// Compat shim: adapts the historical `FnMut(&[bool]) -> (f64, f64)`
/// fitness closure to the batch protocol (evaluating sequentially).
pub struct FnEvaluator<F>(RefCell<F>);

impl<F: FnMut(&[bool]) -> (f64, f64)> FnEvaluator<F> {
    /// Wrap a fitness closure returning `(fitness, cost_seconds)`.
    pub fn new(f: F) -> FnEvaluator<F> {
        FnEvaluator(RefCell::new(f))
    }
}

impl<F: FnMut(&[bool]) -> (f64, f64)> Evaluator for FnEvaluator<F> {
    fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort> {
        let f = &mut *self.0.borrow_mut();
        Ok(genomes
            .iter()
            .map(|g| {
                let (fitness, cost) = f(g);
                Eval::new(fitness, cost)
            })
            .collect())
    }
}

/// Per-gene mutation-rate multipliers — how a learned prior biases the
/// search toward the genes that historically moved fitness.
///
/// [`MutationBias::uniform`] (the default) applies no table at all: the
/// mutation loop takes exactly the code path it always took, so runs are
/// *bit-identical* to a bias-free GA — the guarantee the differential
/// tests pin. A weighted table multiplies the base
/// [`GaParams::mutation_rate`] per gene (clamped to `[0, 1]`), so weight
/// `1.0` is neutral, `> 1.0` explores a gene more, `< 1.0` less. Weights
/// are sanitized at construction: non-finite values become `1.0`
/// (neutral) and negatives become `0.0`, so a degenerate prior can never
/// panic the RNG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationBias {
    weights: Option<Vec<f64>>,
}

impl MutationBias {
    /// No bias: every gene mutates at the base rate (bit-identical to a
    /// GA without bias support).
    pub fn uniform() -> MutationBias {
        MutationBias::default()
    }

    /// A per-gene weight table (sanitized; see type docs). The table
    /// length must match the chromosome width — a mismatched table is
    /// ignored (treated as uniform) rather than panicking mid-run.
    pub fn from_weights(weights: Vec<f64>) -> MutationBias {
        let weights = weights
            .into_iter()
            .map(|w| if w.is_finite() { w.max(0.0) } else { 1.0 })
            .collect();
        MutationBias {
            weights: Some(weights),
        }
    }

    /// Whether this is the uniform (no-table) bias.
    pub fn is_uniform(&self) -> bool {
        self.weights.is_none()
    }

    /// The weight table, if any.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }
}

/// Genetic-algorithm parameters (the four the paper tunes, plus
/// population shape and the prior-derived search hints).
#[derive(Debug, Clone)]
pub struct GaParams {
    /// Number of individuals per generation.
    pub population: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Probability a child is produced by crossover (vs. cloning).
    pub crossover_rate: f64,
    /// Minimum number of genes force-flipped in a mutated child.
    pub must_mutate_count: usize,
    /// Fraction of genes taken from the fitter parent during crossover.
    pub crossover_strength: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Individuals carried over unchanged each generation.
    pub elitism: usize,
    /// Genomes injected into the initial population (after the all-off
    /// and all-on baselines, before the random fill) — how a prior seeds
    /// the search with configurations that scored well before. Seeds are
    /// repaired like any other individual and marked in the history
    /// ([`EvalRecord::seeded`]). Empty (the default) leaves the initial
    /// population — and the RNG stream — exactly as without seeding.
    /// Seeds whose length does not match the chromosome width, or beyond
    /// the available population slots, are ignored.
    pub seeded_initial: Vec<Vec<bool>>,
    /// Prior-derived per-gene mutation weights (uniform by default; see
    /// [`MutationBias`]).
    pub mutation_bias: MutationBias,
}

impl Default for GaParams {
    fn default() -> GaParams {
        GaParams {
            population: 24,
            mutation_rate: 0.04,
            crossover_rate: 0.85,
            must_mutate_count: 2,
            crossover_strength: 0.6,
            tournament: 3,
            elitism: 2,
            seeded_initial: Vec::new(),
            mutation_bias: MutationBias::uniform(),
        }
    }
}

/// Termination criteria (Appendix B lists exactly these three).
#[derive(Debug, Clone)]
pub struct Termination {
    /// Hard cap on fitness evaluations ("compilation iterations").
    pub max_evaluations: usize,
    /// Simulated/wall time budget in seconds (charged from each
    /// [`Eval::cost_seconds`]; 0 = unlimited).
    pub max_seconds: f64,
    /// Stop when the best fitness's growth rate over the last window is
    /// below this fraction (paper: 0.35%).
    pub plateau_growth: f64,
    /// Window (in evaluations) over which growth is measured.
    pub plateau_window: usize,
    /// Minimum evaluations before the plateau criterion may fire.
    pub min_evaluations: usize,
}

impl Default for Termination {
    fn default() -> Termination {
        Termination {
            max_evaluations: 2000,
            max_seconds: 0.0,
            plateau_growth: 0.0035,
            plateau_window: 120,
            min_evaluations: 160,
        }
    }
}

/// One fitness evaluation's record (drives the paper's Figure 6 plots).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// 1-based evaluation index.
    pub iteration: usize,
    /// Fitness of the evaluated individual.
    pub fitness: f64,
    /// Best fitness seen so far.
    pub best_so_far: f64,
    /// The genes evaluated.
    pub genes: Vec<bool>,
    /// Accumulated charged time (seconds) when this evaluation finished.
    pub elapsed_seconds: f64,
    /// Whether the evaluation was served from the evaluator's in-run
    /// cache.
    pub cache_hit: bool,
    /// Whether the evaluation was served from a persistent (cross-run)
    /// store.
    pub persistent_hit: bool,
    /// Whether the evaluation's fresh compile reused a cached stage-1
    /// artifact (see [`Eval::ast_reused`]).
    pub ast_reused: bool,
    /// Whether the evaluation's fresh compile reused a cached stage-2
    /// artifact (see [`Eval::lower_reused`]).
    pub lower_reused: bool,
    /// Whether this individual was injected into the initial population
    /// from [`GaParams::seeded_initial`] (a prior-transferred seed)
    /// rather than bred or randomly generated.
    pub seeded: bool,
    /// Measured wall-clock seconds for this evaluation (0 when the
    /// evaluator does not measure).
    pub wall_seconds: f64,
    /// Wall-clock seconds spent producing a shared stage-1 artifact for
    /// this evaluation's effect family (see [`Eval::ast_produce_seconds`]).
    pub ast_produce_seconds: f64,
}

/// The outcome of a GA run.
#[derive(Debug, Clone)]
pub struct GaRun {
    /// Best genes found.
    pub best_genes: Vec<bool>,
    /// Best fitness.
    pub best_fitness: f64,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
    /// Per-evaluation history.
    pub history: Vec<EvalRecord>,
    /// Which criterion stopped the run.
    pub stopped_by: StopReason,
    /// Total charged time in seconds.
    pub elapsed_seconds: f64,
    /// Offspring discarded before evaluation because their digest was
    /// already seen (only [`Ga::run_batched_dedup`] produces these).
    pub skipped_duplicates: usize,
    /// Evaluations of prior-injected seeds ([`GaParams::seeded_initial`];
    /// 0 when no seeds were configured or none fit the population).
    pub seeded_evaluations: usize,
}

/// Why a run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Evaluation cap reached.
    MaxEvaluations,
    /// Time budget exhausted.
    TimeBudget,
    /// Fitness growth reached the point of diminishing returns.
    Plateau,
}

/// Borrowed constraint-repair callback (paper §4.1's constraints-
/// verification step): maps a raw chromosome plus a repair seed to a
/// constraint-valid chromosome.
type RepairFn<'a> = &'a dyn Fn(&[bool], u64) -> Vec<bool>;

/// Borrowed equivalence-class digest for population-level dedup.
type DigestFn<'a> = &'a dyn Fn(&[bool]) -> u64;

/// The genetic algorithm engine.
#[derive(Debug)]
pub struct Ga {
    n_genes: usize,
    params: GaParams,
    rng: StdRng,
}

impl Ga {
    /// A GA over `n_genes`-bit chromosomes.
    pub fn new(n_genes: usize, params: GaParams, seed: u64) -> Ga {
        Ga {
            n_genes,
            params,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn mutate(&mut self, genes: &mut [bool]) {
        let mut flipped = 0usize;
        // A weight table only applies when it matches the chromosome
        // width; the uniform path below is the historical code path,
        // untouched so unbiased runs stay bit-identical.
        match self.params.mutation_bias.weights() {
            Some(w) if w.len() == genes.len() => {
                for (g, &weight) in genes.iter_mut().zip(w) {
                    let p = (self.params.mutation_rate * weight).clamp(0.0, 1.0);
                    if self.rng.gen_bool(p) {
                        *g = !*g;
                        flipped += 1;
                    }
                }
            }
            _ => {
                for g in genes.iter_mut() {
                    if self.rng.gen_bool(self.params.mutation_rate) {
                        *g = !*g;
                        flipped += 1;
                    }
                }
            }
        }
        while flipped < self.params.must_mutate_count {
            let i = self.rng.gen_range(0..self.n_genes.max(1));
            genes[i] = !genes[i];
            flipped += 1;
        }
    }

    fn crossover(&mut self, fitter: &[bool], other: &[bool]) -> Vec<bool> {
        (0..self.n_genes)
            .map(|i| {
                if self.rng.gen_bool(self.params.crossover_strength) {
                    fitter[i]
                } else {
                    other[i]
                }
            })
            .collect()
    }

    fn tournament_pick<'a>(&mut self, pop: &'a [(Vec<bool>, f64)]) -> &'a (Vec<bool>, f64) {
        let mut best: Option<&(Vec<bool>, f64)> = None;
        for _ in 0..self.params.tournament {
            let c = &pop[self.rng.gen_range(0..pop.len())];
            if best.map(|b| c.1 > b.1).unwrap_or(true) {
                best = Some(c);
            }
        }
        best.unwrap()
    }

    /// Run the GA with a fitness closure returning
    /// `(fitness, cost_seconds)` — the historical per-individual protocol,
    /// kept as a thin shim over [`Ga::run_batched`]. `repair` must return
    /// a constraint-valid chromosome (paper §4.1's constraints-
    /// verification step).
    pub fn run(
        &mut self,
        fitness: impl FnMut(&[bool]) -> (f64, f64),
        repair: impl Fn(&[bool], u64) -> Vec<bool>,
        term: &Termination,
    ) -> GaRun {
        // A closure evaluator has no abort channel, so this cannot fail.
        self.run_batched(&FnEvaluator::new(fitness), repair, term)
            .expect("FnEvaluator is infallible")
    }

    /// Run the GA against a batch [`Evaluator`].
    ///
    /// The initial population is evaluated as one batch, and each
    /// generation's offspring as one batch, so implementations can
    /// parallelize or deduplicate within a batch. History, termination
    /// and RNG semantics are identical to the sequential protocol: a
    /// fixed seed yields the same [`GaRun`] whichever way the evaluator
    /// schedules the work, because breeding never depends on sibling
    /// fitness within a generation. When a budget criterion fires
    /// mid-batch, the remaining evaluations of that batch are discarded
    /// uncounted — exactly the evaluations the sequential loop would
    /// never have started.
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalAbort`] unchanged; the partial
    /// run is discarded (results already committed before the abort are
    /// not replayable, and a half-run would misreport its stop reason).
    pub fn run_batched(
        &mut self,
        evaluator: &dyn Evaluator,
        repair: impl Fn(&[bool], u64) -> Vec<bool>,
        term: &Termination,
    ) -> Result<GaRun, EvalAbort> {
        self.run_inner(evaluator, &repair, None, term)
    }

    /// Run the GA with population-level deduplication: breeding consults
    /// a seen-digest set, and an offspring whose digest was already
    /// evaluated is discarded and re-bred (up to a bounded number of
    /// attempts) so the evaluation budget is spent on genuinely new
    /// configurations.
    ///
    /// `digest` maps a repaired chromosome to the equivalence class that
    /// actually determines its fitness — for BinTuner, the resolved
    /// effect configuration, under which many distinct flag vectors
    /// collapse. It must be deterministic. Runs remain deterministic in
    /// the seed, but follow a *different* trajectory than
    /// [`Ga::run_batched`] (re-breeding consumes RNG), so dedup is
    /// opt-in. Discards are counted in [`GaRun::skipped_duplicates`];
    /// when re-breeding exhausts its attempts the duplicate child is
    /// accepted rather than looping forever (selection still needs a
    /// full population).
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalAbort`] unchanged (see
    /// [`Ga::run_batched`]).
    pub fn run_batched_dedup(
        &mut self,
        evaluator: &dyn Evaluator,
        repair: impl Fn(&[bool], u64) -> Vec<bool>,
        digest: impl Fn(&[bool]) -> u64,
        term: &Termination,
    ) -> Result<GaRun, EvalAbort> {
        self.run_inner(evaluator, &repair, Some(&digest), term)
    }

    /// Breed one child from the current population (tournament selection,
    /// crossover-or-clone, mutation, repair).
    fn breed(&mut self, population: &[(Vec<bool>, f64)], repair: RepairFn<'_>) -> Vec<bool> {
        let p1 = self.tournament_pick(population).clone();
        let p2 = self.tournament_pick(population).clone();
        let (fitter, other) = if p1.1 >= p2.1 { (&p1, &p2) } else { (&p2, &p1) };
        let mut child = if self.rng.gen_bool(self.params.crossover_rate) {
            self.crossover(&fitter.0, &other.0)
        } else {
            fitter.0.clone()
        };
        self.mutate(&mut child);
        repair(&child, self.rng.gen())
    }

    fn run_inner(
        &mut self,
        evaluator: &dyn Evaluator,
        repair: RepairFn<'_>,
        digest: Option<DigestFn<'_>>,
        term: &Termination,
    ) -> Result<GaRun, EvalAbort> {
        /// Re-breeding attempts per child before accepting a duplicate.
        /// Bounded so a converged population (or a digest with few
        /// classes) cannot spin the breeding loop forever.
        const DEDUP_RETRIES: usize = 12;

        let mut state = RunState {
            history: Vec::new(),
            best: (vec![false; self.n_genes], f64::NEG_INFINITY),
            elapsed: 0.0,
            evals: 0,
            seeded_evals: 0,
        };
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut skipped_duplicates = 0usize;
        let stopped;

        // Initial population: the all-off vector, a dense vector,
        // prior-injected seeds (if any), and random ones — all repaired,
        // evaluated as one batch. Seeds fill slots without consuming RNG,
        // so an empty seed list leaves the stream — and therefore the
        // whole run — bit-identical to a seed-free GA.
        let seeds: Vec<&Vec<bool>> = self
            .params
            .seeded_initial
            .iter()
            .filter(|s| s.len() == self.n_genes)
            .collect();
        let initial: Vec<(Vec<bool>, bool)> = (0..self.params.population)
            .map(|k| {
                let (raw, seeded): (Vec<bool>, bool) = match k {
                    0 => (vec![false; self.n_genes], false),
                    1 => (vec![true; self.n_genes], false),
                    _ => match seeds.get(k - 2) {
                        Some(&s) => (s.clone(), true),
                        None => (
                            (0..self.n_genes).map(|_| self.rng.gen_bool(0.5)).collect(),
                            false,
                        ),
                    },
                };
                (repair(&raw, k as u64), seeded)
            })
            .collect();
        let seeded_mask: Vec<bool> = initial.iter().map(|(_, s)| *s).collect();
        let initial: Vec<Vec<bool>> = initial.into_iter().map(|(g, _)| g).collect();
        if let Some(digest) = digest {
            for g in &initial {
                seen.insert(digest(g));
            }
        }
        let results = evaluator.evaluate_batch(&initial)?;
        let (fitnesses, _) = state.commit(&initial, &results, &seeded_mask, false, term);
        let mut population: Vec<(Vec<bool>, f64)> = initial.into_iter().zip(fitnesses).collect();

        loop {
            // Termination checks (generation boundary).
            if state.evals >= term.max_evaluations {
                stopped = StopReason::MaxEvaluations;
                break;
            }
            if term.max_seconds > 0.0 && state.elapsed >= term.max_seconds {
                stopped = StopReason::TimeBudget;
                break;
            }
            if state.evals >= term.min_evaluations && state.evals > term.plateau_window {
                let then = state.history[state.evals - term.plateau_window - 1].best_so_far;
                let now = state.best.1;
                let growth = if then.abs() > 1e-12 {
                    (now - then) / then.abs()
                } else {
                    1.0
                };
                if growth < term.plateau_growth {
                    stopped = StopReason::Plateau;
                    break;
                }
            }
            // Breed the next generation, then evaluate it as one batch.
            // Parents come from the *current* population only, so breeding
            // order cannot observe sibling fitness — the batch is
            // semantically identical to the one-at-a-time loop. The brood
            // is truncated to the remaining evaluation budget: the
            // sequential loop would stop breeding at the cap, and
            // evaluating past it would waste real compiles (the time
            // budget can still cut mid-batch — per-eval cost is only known
            // after evaluation — and those results are discarded).
            let mut sorted = population.clone();
            sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let elites: Vec<(Vec<bool>, f64)> =
                sorted.iter().take(self.params.elitism).cloned().collect();
            let brood =
                (self.params.population - elites.len()).min(term.max_evaluations - state.evals);
            let offspring: Vec<Vec<bool>> = (0..brood)
                .map(|_| {
                    let mut child = self.breed(&population, repair);
                    if let Some(digest) = digest {
                        // Skip offspring that collapse to an already-
                        // evaluated configuration: re-breed, spending the
                        // budget on new ones. Accepted children enter the
                        // seen set, which also dedups within this brood.
                        let mut attempts = 0;
                        while !seen.insert(digest(&child)) {
                            if attempts >= DEDUP_RETRIES {
                                break;
                            }
                            attempts += 1;
                            skipped_duplicates += 1;
                            child = self.breed(&population, repair);
                        }
                    }
                    child
                })
                .collect();
            let results = evaluator.evaluate_batch(&offspring)?;
            let (fitnesses, cut) = state.commit(&offspring, &results, &[], true, term);
            population = elites;
            population.extend(offspring.into_iter().zip(fitnesses));
            if cut {
                // A budget criterion fired mid-batch; the boundary checks
                // at the top of the loop pick the stop reason.
                continue;
            }
        }

        Ok(GaRun {
            best_genes: state.best.0,
            best_fitness: state.best.1,
            evaluations: state.evals,
            history: state.history,
            stopped_by: stopped,
            elapsed_seconds: state.elapsed,
            skipped_duplicates,
            seeded_evaluations: state.seeded_evals,
        })
    }
}

/// Mutable accounting threaded through one [`Ga::run_batched`] call.
struct RunState {
    history: Vec<EvalRecord>,
    best: (Vec<bool>, f64),
    elapsed: f64,
    evals: usize,
    seeded_evals: usize,
}

impl RunState {
    /// Commit a batch's results in order. When `bounded`, stop at the
    /// first evaluation after which a budget criterion fires; the
    /// remaining results are discarded uncounted (the sequential loop
    /// would never have started them). `seeded` marks prior-injected
    /// individuals positionally (pass `&[]` for bred batches). Returns
    /// every genome's fitness (committed or not, so the caller can build
    /// a full population) and whether the budget cut the batch short.
    fn commit(
        &mut self,
        genomes: &[Vec<bool>],
        results: &[Eval],
        seeded: &[bool],
        bounded: bool,
        term: &Termination,
    ) -> (Vec<f64>, bool) {
        debug_assert_eq!(genomes.len(), results.len());
        let fitnesses: Vec<f64> = results.iter().map(|e| e.fitness).collect();
        let mut cut = false;
        for (i, (genes, eval)) in genomes.iter().zip(results).enumerate() {
            let was_seeded = seeded.get(i).copied().unwrap_or(false);
            self.evals += 1;
            self.elapsed += eval.cost_seconds;
            self.seeded_evals += was_seeded as usize;
            if eval.fitness > self.best.1 {
                self.best = (genes.clone(), eval.fitness);
            }
            self.history.push(EvalRecord {
                iteration: self.evals,
                fitness: eval.fitness,
                best_so_far: self.best.1,
                genes: genes.clone(),
                elapsed_seconds: self.elapsed,
                cache_hit: eval.cache_hit,
                persistent_hit: eval.persistent_hit,
                ast_reused: eval.ast_reused,
                lower_reused: eval.lower_reused,
                seeded: was_seeded,
                wall_seconds: eval.wall_seconds,
                ast_produce_seconds: eval.ast_produce_seconds,
            });
            if bounded
                && (self.evals >= term.max_evaluations
                    || (term.max_seconds > 0.0 && self.elapsed >= term.max_seconds))
            {
                cut = true;
                break;
            }
        }
        (fitnesses, cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onemax(genes: &[bool]) -> (f64, f64) {
        (genes.iter().filter(|&&g| g).count() as f64, 0.01)
    }

    #[test]
    fn solves_onemax() {
        let mut ga = Ga::new(24, GaParams::default(), 1);
        let run = ga.run(
            onemax,
            |g, _| g.to_vec(),
            &Termination {
                max_evaluations: 1500,
                plateau_growth: 0.0,
                ..Default::default()
            },
        );
        assert!(run.best_fitness >= 22.0, "{}", run.best_fitness);
        assert_eq!(run.evaluations, run.history.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let term = Termination {
            max_evaluations: 300,
            ..Default::default()
        };
        let run1 = Ga::new(16, GaParams::default(), 7).run(onemax, |g, _| g.to_vec(), &term);
        let run2 = Ga::new(16, GaParams::default(), 7).run(onemax, |g, _| g.to_vec(), &term);
        assert_eq!(run1.best_genes, run2.best_genes);
        assert_eq!(run1.evaluations, run2.evaluations);
    }

    #[test]
    fn plateau_terminates_early() {
        // Constant fitness plateaus immediately after the window.
        let mut ga = Ga::new(12, GaParams::default(), 3);
        let run = ga.run(
            |_| (5.0, 0.0),
            |g, _| g.to_vec(),
            &Termination {
                max_evaluations: 5000,
                plateau_window: 50,
                min_evaluations: 60,
                ..Default::default()
            },
        );
        assert_eq!(run.stopped_by, StopReason::Plateau);
        assert!(run.evaluations < 300, "{}", run.evaluations);
    }

    #[test]
    fn time_budget_terminates() {
        let mut ga = Ga::new(12, GaParams::default(), 3);
        let run = ga.run(
            |g| (onemax(g).0, 1.0),
            |g, _| g.to_vec(),
            &Termination {
                max_evaluations: 100_000,
                max_seconds: 40.0,
                plateau_growth: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(run.stopped_by, StopReason::TimeBudget);
        assert!(run.elapsed_seconds >= 40.0);
    }

    #[test]
    fn repair_is_always_applied() {
        // Repair forces gene 0 off; no evaluated individual may have it on.
        let mut ga = Ga::new(8, GaParams::default(), 9);
        let run = ga.run(
            onemax,
            |g, _| {
                let mut g = g.to_vec();
                g[0] = false;
                g
            },
            &Termination {
                max_evaluations: 400,
                ..Default::default()
            },
        );
        assert!(run.history.iter().all(|r| !r.genes[0]));
        assert!(run.best_fitness <= 7.0);
    }

    /// Batch evaluator computing onemax, marking repeats as cache hits
    /// and charging them nothing — a miniature of the fitness engine.
    struct BatchOnemax {
        seen: std::cell::RefCell<std::collections::BTreeSet<Vec<bool>>>,
    }

    impl BatchOnemax {
        fn new() -> BatchOnemax {
            BatchOnemax {
                seen: std::cell::RefCell::new(Default::default()),
            }
        }
    }

    impl Evaluator for BatchOnemax {
        fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort> {
            let mut seen = self.seen.borrow_mut();
            Ok(genomes
                .iter()
                .map(|g| {
                    let hit = !seen.insert(g.clone());
                    Eval {
                        fitness: onemax(g).0,
                        cost_seconds: 0.01,
                        wall_seconds: 0.001,
                        cache_hit: hit,
                        ..Eval::new(0.0, 0.0)
                    }
                })
                .collect())
        }
    }

    #[test]
    fn batched_protocol_matches_closure_protocol() {
        // Same seed, same fitness: the batch path and the sequential
        // closure shim must produce identical runs, record for record.
        let term = Termination {
            max_evaluations: 500,
            ..Default::default()
        };
        let run_seq = Ga::new(16, GaParams::default(), 7).run(onemax, |g, _| g.to_vec(), &term);
        let run_batch = Ga::new(16, GaParams::default(), 7)
            .run_batched(&BatchOnemax::new(), |g, _| g.to_vec(), &term)
            .unwrap();
        assert_eq!(run_seq.best_genes, run_batch.best_genes);
        assert_eq!(run_seq.best_fitness, run_batch.best_fitness);
        assert_eq!(run_seq.evaluations, run_batch.evaluations);
        assert_eq!(run_seq.stopped_by, run_batch.stopped_by);
        assert_eq!(run_seq.history.len(), run_batch.history.len());
        for (a, b) in run_seq.history.iter().zip(&run_batch.history) {
            assert_eq!(a.genes, b.genes);
            assert_eq!(a.fitness, b.fitness);
            assert_eq!(a.best_so_far, b.best_so_far);
        }
    }

    #[test]
    fn cache_hits_are_accounted() {
        let mut ga = Ga::new(12, GaParams::default(), 5);
        let run = ga
            .run_batched(
                &BatchOnemax::new(),
                |g, _| g.to_vec(),
                &Termination {
                    max_evaluations: 600,
                    plateau_growth: 0.0,
                    ..Default::default()
                },
            )
            .unwrap();
        // Tournament selection revisits genomes constantly on a 12-bit
        // space; the evaluator must have reported hits, and the history
        // must carry each evaluation's hit flag and measured wall time.
        assert!(run.history.iter().any(|r| r.cache_hit));
        assert!(run.history.iter().all(|r| r.wall_seconds == 0.001));
    }

    #[test]
    fn closure_shim_reports_no_cache_hits() {
        let mut ga = Ga::new(10, GaParams::default(), 2);
        let run = ga.run(
            onemax,
            |g, _| g.to_vec(),
            &Termination {
                max_evaluations: 100,
                ..Default::default()
            },
        );
        assert!(run
            .history
            .iter()
            .all(|r| !r.cache_hit && !r.persistent_hit));
        assert!(run.history.iter().all(|r| r.wall_seconds == 0.0));
    }

    /// Digest collapsing a chromosome to its popcount — a deliberately
    /// coarse equivalence (n+1 classes) that makes duplicates common,
    /// mirroring how many flag vectors collapse to one effect config.
    fn popcount_digest(g: &[bool]) -> u64 {
        g.iter().filter(|&&b| b).count() as u64
    }

    #[test]
    fn dedup_spends_budget_on_new_classes() {
        let term = Termination {
            max_evaluations: 300,
            plateau_growth: 0.0,
            ..Default::default()
        };
        let distinct_classes = |run: &GaRun| {
            run.history
                .iter()
                .map(|r| popcount_digest(&r.genes))
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        let plain = Ga::new(24, GaParams::default(), 17)
            .run_batched(&BatchOnemax::new(), |g, _| g.to_vec(), &term)
            .unwrap();
        let dedup = Ga::new(24, GaParams::default(), 17)
            .run_batched_dedup(
                &BatchOnemax::new(),
                |g, _| g.to_vec(),
                popcount_digest,
                &term,
            )
            .unwrap();
        // Re-breeding must actually have fired, and the same budget must
        // cover at least as many equivalence classes as without dedup.
        assert!(dedup.skipped_duplicates > 0, "{}", dedup.skipped_duplicates);
        assert_eq!(plain.skipped_duplicates, 0);
        assert!(
            distinct_classes(&dedup) >= distinct_classes(&plain),
            "dedup {} < plain {}",
            distinct_classes(&dedup),
            distinct_classes(&plain)
        );
    }

    #[test]
    fn dedup_is_deterministic_and_bounded() {
        let term = Termination {
            max_evaluations: 200,
            plateau_growth: 0.0,
            ..Default::default()
        };
        // A single-class digest makes *every* re-breed a duplicate; the
        // bounded retry must still accept children and terminate.
        let degenerate = Ga::new(16, GaParams::default(), 3)
            .run_batched_dedup(&BatchOnemax::new(), |g, _| g.to_vec(), |_| 0, &term)
            .unwrap();
        assert_eq!(degenerate.evaluations, 200);

        let a = Ga::new(16, GaParams::default(), 9)
            .run_batched_dedup(
                &BatchOnemax::new(),
                |g, _| g.to_vec(),
                popcount_digest,
                &term,
            )
            .unwrap();
        let b = Ga::new(16, GaParams::default(), 9)
            .run_batched_dedup(
                &BatchOnemax::new(),
                |g, _| g.to_vec(),
                popcount_digest,
                &term,
            )
            .unwrap();
        assert_eq!(a.best_genes, b.best_genes);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.skipped_duplicates, b.skipped_duplicates);
    }

    /// Record-for-record equality of two runs (the strongest form of
    /// "did not change the search").
    fn assert_identical_runs(a: &GaRun, b: &GaRun) {
        assert_eq!(a.best_genes, b.best_genes);
        assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.stopped_by, b.stopped_by);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.genes, y.genes, "iteration {}", x.iteration);
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
            assert_eq!(x.best_so_far.to_bits(), y.best_so_far.to_bits());
        }
    }

    #[test]
    fn empty_seeds_and_neutral_weights_are_bit_identical() {
        // The two prior hooks in their "off" positions must not move a
        // single record: explicit all-1.0 weights and an explicit empty
        // seed list both reproduce the default run exactly.
        let term = Termination {
            max_evaluations: 400,
            plateau_growth: 0.0,
            ..Default::default()
        };
        let baseline = Ga::new(16, GaParams::default(), 21)
            .run_batched(&BatchOnemax::new(), |g, _| g.to_vec(), &term)
            .unwrap();
        let hooks_off = GaParams {
            seeded_initial: Vec::new(),
            mutation_bias: MutationBias::from_weights(vec![1.0; 16]),
            ..Default::default()
        };
        let run = Ga::new(16, hooks_off, 21)
            .run_batched(&BatchOnemax::new(), |g, _| g.to_vec(), &term)
            .unwrap();
        assert_identical_runs(&baseline, &run);
        assert_eq!(run.seeded_evaluations, 0);
        assert!(run.history.iter().all(|r| !r.seeded));
    }

    #[test]
    fn seeds_enter_initial_population_and_are_marked() {
        let good = vec![true; 12];
        let params = GaParams {
            seeded_initial: vec![good.clone(), vec![false; 12]],
            ..Default::default()
        };
        let run = Ga::new(12, params, 4)
            .run_batched(
                &BatchOnemax::new(),
                |g, _| g.to_vec(),
                &Termination {
                    max_evaluations: 100,
                    ..Default::default()
                },
            )
            .unwrap();
        // Slots 0 and 1 are the fixed baselines; slots 2 and 3 carry the
        // seeds verbatim (repair here is identity) and are flagged.
        assert_eq!(run.history[2].genes, good);
        assert!(run.history[2].seeded && run.history[3].seeded);
        assert!(!run.history[0].seeded && !run.history[1].seeded);
        assert!(!run.history[4].seeded);
        assert_eq!(run.seeded_evaluations, 2);
        assert_eq!(
            run.seeded_evaluations,
            run.history.iter().filter(|r| r.seeded).count()
        );
    }

    #[test]
    fn mismatched_seeds_are_ignored() {
        // Wrong-width seeds must not enter the population (or consume the
        // slots that random individuals would fill).
        let params = GaParams {
            seeded_initial: vec![vec![true; 7], vec![true; 99]],
            ..Default::default()
        };
        let term = Termination {
            max_evaluations: 60,
            ..Default::default()
        };
        let seeded = Ga::new(12, params, 8)
            .run_batched(&BatchOnemax::new(), |g, _| g.to_vec(), &term)
            .unwrap();
        let plain = Ga::new(12, GaParams::default(), 8)
            .run_batched(&BatchOnemax::new(), |g, _| g.to_vec(), &term)
            .unwrap();
        assert_identical_runs(&plain, &seeded);
        assert_eq!(seeded.seeded_evaluations, 0);
    }

    #[test]
    fn mutation_bias_steers_gene_flip_frequency() {
        // Freeze gene 5 (weight 0) and super-heat gene 2 (weight far
        // above the base rate): across a run, gene 5 must never flip away
        // from its repaired state and gene 2 must churn.
        let mut weights = vec![1.0; 12];
        weights[5] = 0.0;
        weights[2] = 20.0;
        let params = GaParams {
            mutation_bias: MutationBias::from_weights(weights),
            must_mutate_count: 0,
            ..Default::default()
        };
        let run = Ga::new(12, params, 6)
            .run_batched(
                &BatchOnemax::new(),
                |g, _| g.to_vec(),
                &Termination {
                    max_evaluations: 400,
                    plateau_growth: 0.0,
                    ..Default::default()
                },
            )
            .unwrap();
        let flips = |i: usize| {
            run.history
                .windows(2)
                .filter(|w| w[0].genes[i] != w[1].genes[i])
                .count()
        };
        assert!(
            flips(2) > flips(5),
            "hot {} vs frozen {}",
            flips(2),
            flips(5)
        );
    }

    #[test]
    fn mutation_bias_sanitizes_degenerate_weights() {
        let b = MutationBias::from_weights(vec![f64::NAN, -3.0, f64::INFINITY, 0.5]);
        assert_eq!(b.weights().unwrap(), &[1.0, 0.0, 1.0, 0.5]);
        assert!(MutationBias::uniform().is_uniform());
        assert!(!b.is_uniform());
    }

    #[test]
    fn dedup_with_never_duplicate_digest_matches_run_batched() {
        // PR 2's default-off invariant, locked in differentially: when the
        // digest never reports a duplicate (every call yields a fresh
        // class), `run_batched_dedup` must equal `run_batched` record for
        // record — re-breeding is the *only* divergence dedup introduces.
        let term = Termination {
            max_evaluations: 500,
            plateau_growth: 0.0,
            ..Default::default()
        };
        let plain = Ga::new(20, GaParams::default(), 13)
            .run_batched(&BatchOnemax::new(), |g, _| g.to_vec(), &term)
            .unwrap();
        let counter = std::cell::Cell::new(0u64);
        let unique_digest = |_: &[bool]| {
            counter.set(counter.get() + 1);
            counter.get()
        };
        let dedup_off = Ga::new(20, GaParams::default(), 13)
            .run_batched_dedup(&BatchOnemax::new(), |g, _| g.to_vec(), unique_digest, &term)
            .unwrap();
        assert_identical_runs(&plain, &dedup_off);
        assert_eq!(dedup_off.skipped_duplicates, 0);
    }

    #[test]
    fn must_mutate_count_diversifies_clones() {
        let params = GaParams {
            crossover_rate: 0.0,
            mutation_rate: 0.0,
            must_mutate_count: 3,
            ..Default::default()
        };
        let mut ga = Ga::new(20, params, 11);
        let run = ga.run(
            onemax,
            |g, _| g.to_vec(),
            &Termination {
                max_evaluations: 200,
                plateau_growth: 0.0,
                ..Default::default()
            },
        );
        // Forced mutation keeps producing new individuals even without
        // crossover/mutation probability.
        let distinct: std::collections::BTreeSet<Vec<bool>> =
            run.history.iter().map(|r| r.genes.clone()).collect();
        assert!(distinct.len() > 50, "{}", distinct.len());
    }

    /// Evaluator that scores `ok_batches` batches, then aborts — the
    /// shape of a compile farm dying partway through a run.
    struct AbortAfter {
        ok_batches: std::cell::Cell<usize>,
    }

    impl Evaluator for AbortAfter {
        fn evaluate_batch(&self, genomes: &[Vec<bool>]) -> Result<Vec<Eval>, EvalAbort> {
            let left = self.ok_batches.get();
            if left == 0 {
                return Err(EvalAbort::with_source(
                    "farm died",
                    std::io::Error::other("all clients lost"),
                ));
            }
            self.ok_batches.set(left - 1);
            Ok(genomes
                .iter()
                .map(|g| Eval::new(onemax(g).0, 0.01))
                .collect())
        }
    }

    #[test]
    fn evaluator_abort_propagates_from_both_batch_sites() {
        let term = Termination {
            max_evaluations: 500,
            plateau_growth: 0.0,
            ..Default::default()
        };
        // Abort on the very first (initial-population) batch.
        let err = Ga::new(12, GaParams::default(), 4)
            .run_batched(
                &AbortAfter {
                    ok_batches: std::cell::Cell::new(0),
                },
                |g, _| g.to_vec(),
                &term,
            )
            .unwrap_err();
        assert_eq!(err.to_string(), "farm died");
        assert_eq!(
            std::error::Error::source(&err).unwrap().to_string(),
            "all clients lost"
        );
        // Abort on an offspring batch, through both entry points.
        for dedup in [false, true] {
            let evaluator = AbortAfter {
                ok_batches: std::cell::Cell::new(1),
            };
            let mut ga = Ga::new(12, GaParams::default(), 4);
            let err = if dedup {
                ga.run_batched_dedup(&evaluator, |g, _| g.to_vec(), popcount_digest, &term)
                    .unwrap_err()
            } else {
                ga.run_batched(&evaluator, |g, _| g.to_vec(), &term)
                    .unwrap_err()
            };
            assert_eq!(err.to_string(), "farm died");
        }
    }
}
