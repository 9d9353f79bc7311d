//! Flag-potency priors mined from the persistent fitness store — the
//! paper's "future exploration" made operational.
//!
//! Ren et al. close by proposing to *learn* which optimization flags
//! actually move binary difference instead of searching blindly each run,
//! and Brown et al.'s compiler-impact study (PAPERS.md) observes that
//! per-flag effects are stable enough across programs to transfer. The
//! [`crate::store::FitnessStore`] accumulates exactly the raw material:
//! every compiled variant's `(module, flag vector, fitness)` across all
//! prior runs. This module distills it into a [`PotencyPrior`]:
//!
//! * **Per-flag marginal potency** — [`crate::potency::marginal_potency`]
//!   aggregated over every stored record for the same compiler profile
//!   and architecture, each flag weighted by a balanced-support
//!   confidence (a flag the store only ever saw enabled teaches nothing).
//! * **Nearest-module config transfer** — stored modules are compared to
//!   the tuning target by their [`minicc::ModuleFeatures`] shape
//!   signature (the perturbation-tolerant cousin of
//!   [`minicc::ast::Module::content_hash`]); the top-k best-scoring
//!   stored configs of the nearest module become seeds for the GA's
//!   initial population ([`genetic::GaParams::seeded_initial`]).
//! * **Mutation bias** — the confidence-weighted potency profile becomes
//!   a [`genetic::MutationBias`] table: historically potent flags mutate
//!   more, historically inert ones less.
//!
//! The subsystem is differential-by-construction: an **empty** store
//! mines to an empty prior — no seeds, uniform bias — so a priors-on run
//! over a fresh store is *bit-identical* to a cold unseeded run (the
//! harness in `tests/priors.rs` pins this, alongside
//! [`PriorMode::Off`]'s bit-identity to the historical tuner).

use crate::potency::{marginal_potency_weighted, FlagMarginal};
use crate::store::FitnessStore;
use binrep::Arch;
use genetic::MutationBias;
use minicc::ast::Module;
use minicc::{CompilerProfile, ModuleFeatures};

/// How the tuner uses a mined prior (see [`crate::TunerConfig::priors`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PriorMode {
    /// No mining: the tuner is bit-identical to a prior-free build.
    #[default]
    Off,
    /// Seed the initial population with transferred configs; leave
    /// mutation untouched.
    SeedOnly,
    /// Seed the initial population *and* bias per-flag mutation rates by
    /// mined potency.
    SeedAndBias,
}

impl std::fmt::Display for PriorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PriorMode::Off => "off",
            PriorMode::SeedOnly => "seed-only",
            PriorMode::SeedAndBias => "seed+bias",
        })
    }
}

/// Mining and application knobs.
#[derive(Debug, Clone)]
pub struct PriorConfig {
    /// Seeds transferred from the nearest module (distinct best-scoring
    /// configs; fewer if the module has fewer stored successes).
    pub top_k_seeds: usize,
    /// Balanced samples per side at which a flag's potency reaches full
    /// confidence (see [`FlagMarginal::confidence`]).
    pub min_support: usize,
    /// Half-width of the mutation-weight band: weights span
    /// `[1 − bias_span, 1 + bias_span]`, scaled by per-flag confidence.
    pub bias_span: f64,
    /// Age decay of mined records, in store *generations* (one
    /// generation = one load→save cycle of the store; see
    /// [`FitnessStore::generation`]): a record `age` generations old
    /// contributes weight `0.5^(age / decay_half_life)` to the per-flag
    /// marginals — both its pull on the mean *and* its support — so a
    /// store polluted by a long-gone compiler era stops steering
    /// mutation. `0.0` (the default) disables decay and is **bit-for-bit
    /// identical** to pre-decay mining; seeds are never decayed (a
    /// stored best config is a fact, not a trend).
    pub decay_half_life: f64,
}

impl Default for PriorConfig {
    fn default() -> PriorConfig {
        PriorConfig {
            top_k_seeds: 6,
            min_support: 8,
            bias_span: 0.5,
            decay_half_life: 0.0,
        }
    }
}

/// A prior mined from the store: per-flag statistics plus transferable
/// seed configurations (see module docs).
#[derive(Debug, Clone)]
pub struct PotencyPrior {
    /// Chromosome width the prior was mined against.
    pub n_flags: usize,
    /// Per-flag marginal statistics, index-aligned with the profile.
    pub marginals: Vec<FlagMarginal>,
    /// Top-k stored configs of the nearest module, best first — the GA's
    /// initial-population seeds.
    pub seeds: Vec<Vec<bool>>,
    /// Best stored fitness among [`PotencyPrior::seeds`] (what the
    /// transfer "promises"; `None` without seeds).
    pub seed_best_fitness: Option<f64>,
    /// Content hash of the module the seeds came from.
    pub source_module: Option<u64>,
    /// Shape distance from the tuning target to the source module
    /// (0 = the same module; `None` without a source).
    pub source_distance: Option<f64>,
    /// Store records that matched the profile/arch and carried a usable
    /// flag vector.
    pub mined_records: usize,
}

impl PotencyPrior {
    /// Whether the store taught nothing (no matching records): an empty
    /// prior seeds nothing and biases nothing, by construction.
    pub fn is_empty(&self) -> bool {
        self.mined_records == 0
    }

    /// The confidence-weighted mutation-weight table (see
    /// [`PriorConfig::bias_span`]): flags at the top of the mined
    /// |potency| range mutate up to `1 + span` times the base rate,
    /// flags with no measured effect down to `1 − span`, and flags with
    /// no confidence stay at exactly `1.0`. An empty prior yields
    /// [`MutationBias::uniform`], keeping the GA bit-identical.
    pub fn mutation_bias(&self, cfg: &PriorConfig) -> MutationBias {
        if self.is_empty() {
            return MutationBias::uniform();
        }
        let max_abs = self
            .marginals
            .iter()
            .map(|m| m.potency().abs())
            .fold(0.0f64, f64::max);
        if max_abs <= 0.0 {
            return MutationBias::uniform();
        }
        let weights = self
            .marginals
            .iter()
            .map(|m| {
                let norm = m.potency().abs() / max_abs; // in [0, 1]
                let conf = m.confidence(cfg.min_support);
                1.0 + cfg.bias_span * conf * (2.0 * norm - 1.0)
            })
            .collect();
        MutationBias::from_weights(weights)
    }

    /// How many flags the bias table moves off neutral (reporting).
    pub fn biased_flag_count(&self, cfg: &PriorConfig) -> usize {
        self.mutation_bias(cfg)
            .weights()
            .map_or(0, |w| w.iter().filter(|&&x| x != 1.0).count())
    }
}

/// Mine `store` into a [`PotencyPrior`] for tuning `module` with
/// `profile` on `arch`.
///
/// Only records written by the same compiler profile and architecture
/// participate; failed compiles and records without a same-width flag
/// vector are skipped. All tie-breaks are deterministic (sorted by
/// fitness bits, then flag vector, then module hash), so mining the same
/// store always yields the same prior — the property the differential
/// harness rests on.
pub fn mine_prior(
    store: &mut FitnessStore,
    profile: &CompilerProfile,
    arch: Arch,
    module: &Module,
    cfg: &PriorConfig,
) -> PotencyPrior {
    let n_flags = profile.n_flags();
    let compiler = profile.kind().stable_id();
    let arch = arch.tag();

    // Usable samples: (module hash, flag vector, fitness, age weight),
    // deterministic order (the store's map iteration order is not).
    let current_gen = store.generation();
    let age_weight = |record_gen: u32| -> f64 {
        if cfg.decay_half_life > 0.0 {
            let age = f64::from(current_gen.saturating_sub(record_gen));
            0.5f64.powf(age / cfg.decay_half_life)
        } else {
            // Exactly 1.0: the unit-weight path is bit-identical to
            // unweighted mining (the default's differential guarantee).
            1.0
        }
    };
    let mut samples: Vec<(u64, Vec<bool>, f64, f64)> = store
        .entries()
        .into_iter()
        .filter(|(k, v)| {
            k.compiler == compiler && k.arch == arch && !v.failed && v.flags.len() == n_flags
        })
        .map(|(k, v)| {
            (
                k.module_hash,
                v.flags.to_bools(),
                v.fitness,
                age_weight(v.generation),
            )
        })
        .collect();
    samples.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| b.2.total_cmp(&a.2))
            .then_with(|| a.1.cmp(&b.1))
    });

    let marginals = marginal_potency_weighted(
        n_flags,
        samples.iter().map(|(_, f, v, w)| (f.as_slice(), *v, *w)),
    );

    // Nearest module by shape features, among modules that actually have
    // usable samples. Ties break toward the lower hash.
    let target = module.features();
    let mut candidates: Vec<(f64, u64, ModuleFeatures)> = store
        .modules_with_features()
        .into_iter()
        .filter(|(h, _)| samples.iter().any(|(sh, ..)| sh == h))
        .map(|(h, f)| (target.distance(&f), h, f))
        .collect();
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let source = candidates.first();

    // Top-k distinct configs of the source module, by stored fitness.
    let mut seeds: Vec<Vec<bool>> = Vec::new();
    let mut seed_best_fitness = None;
    if let Some(&(_, source_hash, _)) = source {
        let mut of_source: Vec<&(u64, Vec<bool>, f64, f64)> =
            samples.iter().filter(|(h, ..)| *h == source_hash).collect();
        of_source.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.1.cmp(&b.1)));
        for (_, flags, fitness, _) in of_source {
            if seeds.len() >= cfg.top_k_seeds {
                break;
            }
            if seeds.contains(flags) {
                continue;
            }
            seed_best_fitness.get_or_insert(*fitness);
            seeds.push(flags.clone());
        }
    }

    PotencyPrior {
        n_flags,
        marginals,
        seeds,
        seed_best_fitness,
        source_module: source.map(|&(_, h, _)| h),
        source_distance: source.map(|&(d, _, _)| d),
        mined_records: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FlagBits, StoreKey, StoredFitness};
    use minicc::CompilerKind;

    fn profile() -> CompilerProfile {
        CompilerProfile::new(CompilerKind::Gcc)
    }

    fn module(name: &str) -> Module {
        corpus::by_name(name).unwrap().module
    }

    fn stored(profile: &CompilerProfile, flags: &[bool], fitness: f64) -> StoredFitness {
        let _ = profile;
        StoredFitness {
            fitness,
            failed: false,
            flags: FlagBits::from_bools(flags),
            generation: 0,
        }
    }

    fn key_for(profile: &CompilerProfile, module: &Module, flags: &[bool], salt: u128) -> StoreKey {
        // A unique digest per distinct vector is all mining needs; reuse
        // the real one where convenient but salt to avoid collisions in
        // hand-built fixtures.
        let _ = flags;
        StoreKey::new(module.content_hash(), profile.kind(), Arch::X86, salt)
    }

    #[test]
    fn empty_store_mines_an_empty_prior() {
        let p = profile();
        let m = module("429.mcf");
        let prior = mine_prior(
            &mut FitnessStore::in_memory(),
            &p,
            Arch::X86,
            &m,
            &PriorConfig::default(),
        );
        assert!(prior.is_empty());
        assert!(prior.seeds.is_empty());
        assert_eq!(prior.source_module, None);
        assert_eq!(prior.seed_best_fitness, None);
        assert!(prior.mutation_bias(&PriorConfig::default()).is_uniform());
        assert_eq!(prior.biased_flag_count(&PriorConfig::default()), 0);
    }

    #[test]
    fn mining_is_deterministic_and_filters_foreign_records() {
        let p = profile();
        let m = module("429.mcf");
        let other = module("473.astar");
        let mut store = FitnessStore::in_memory();
        store.record_module_features(m.content_hash(), m.features());
        store.record_module_features(other.content_hash(), other.features());

        let mut flags_a = vec![false; p.n_flags()];
        flags_a[0] = true;
        let mut flags_b = vec![false; p.n_flags()];
        flags_b[1] = true;
        store.insert(key_for(&p, &m, &flags_a, 1), stored(&p, &flags_a, 0.8));
        store.insert(key_for(&p, &m, &flags_b, 2), stored(&p, &flags_b, 0.6));
        // Foreign arch, failed compile, and wrong-width records must all
        // be invisible to mining.
        store.insert(
            StoreKey::new(m.content_hash(), CompilerKind::Gcc, Arch::Arm, 3),
            stored(&p, &flags_a, 9.0),
        );
        store.insert(
            key_for(&p, &m, &flags_a, 4),
            StoredFitness {
                fitness: 9.0,
                failed: true,
                flags: FlagBits::from_bools(&flags_a),
                generation: 0,
            },
        );
        store.insert(
            key_for(&p, &m, &flags_a, 5),
            StoredFitness {
                fitness: 9.0,
                failed: false,
                flags: FlagBits::from_bools(&[true, false]),
                generation: 0,
            },
        );

        let cfg = PriorConfig::default();
        let prior = mine_prior(&mut store, &p, Arch::X86, &m, &cfg);
        assert_eq!(prior.mined_records, 2);
        // Same module present in the store: it is its own nearest source.
        assert_eq!(prior.source_module, Some(m.content_hash()));
        assert_eq!(prior.source_distance, Some(0.0));
        // Seeds are the stored configs, best fitness first.
        assert_eq!(prior.seeds, vec![flags_a.clone(), flags_b.clone()]);
        assert_eq!(prior.seed_best_fitness, Some(0.8));

        let again = mine_prior(&mut store, &p, Arch::X86, &m, &cfg);
        assert_eq!(prior.seeds, again.seeds);
        assert_eq!(prior.source_module, again.source_module);
    }

    #[test]
    fn transfer_picks_the_shape_nearest_module() {
        let p = profile();
        // Tune 605.mcf_s (a scaled variant of 429.mcf's profile) against
        // a store holding 429.mcf (shape-near) and Coreutils
        // (switch/string-heavy, shape-far).
        let target = module("605.mcf_s");
        let near = module("429.mcf");
        let far = corpus::coreutils().module;
        assert!(
            target.features().distance(&near.features())
                < target.features().distance(&far.features())
        );

        let mut store = FitnessStore::in_memory();
        store.record_module_features(near.content_hash(), near.features());
        store.record_module_features(far.content_hash(), far.features());
        let mut near_flags = vec![false; p.n_flags()];
        near_flags[2] = true;
        let far_flags = vec![false; p.n_flags()];
        store.insert(
            key_for(&p, &near, &near_flags, 1),
            stored(&p, &near_flags, 0.5),
        );
        store.insert(
            key_for(&p, &far, &far_flags, 2),
            stored(&p, &far_flags, 0.9),
        );

        let prior = mine_prior(&mut store, &p, Arch::X86, &target, &PriorConfig::default());
        assert_eq!(prior.source_module, Some(near.content_hash()));
        assert_eq!(prior.seeds, vec![near_flags]);
        // The far module's higher score must not override shape proximity
        // (its configs are tuned to a different program).
        assert_eq!(prior.seed_best_fitness, Some(0.5));
    }

    #[test]
    fn age_decay_shifts_mining_toward_recent_generations() {
        // Two store generations disagree about flag 0: the old era says
        // it helps, the recent era says it hurts. Undecayed mining
        // averages them; decayed mining must side with the recent era.
        // Generations are planted the only way real stores get them:
        // load→insert→save cycles against a file.
        let path =
            std::env::temp_dir().join(format!("bintuner_priors_decay_{}.btfs", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let p = profile();
        let m = module("429.mcf");
        let mut on = vec![false; p.n_flags()];
        on[0] = true;
        let off = vec![false; p.n_flags()];

        // Generation 0: flag 0 on => great (two samples per side).
        let mut era0 = FitnessStore::load(&path);
        era0.record_module_features(m.content_hash(), m.features());
        era0.insert(key_for(&p, &m, &on, 1), stored(&p, &on, 0.9));
        era0.insert(key_for(&p, &m, &on, 2), stored(&p, &on, 0.8));
        era0.insert(key_for(&p, &m, &off, 3), stored(&p, &off, 0.1));
        era0.insert(key_for(&p, &m, &off, 4), stored(&p, &off, 0.2));
        era0.save().unwrap();
        // Generation 1: flag 0 on => worse.
        let mut era1 = FitnessStore::load(&path);
        assert_eq!(era1.generation(), 1);
        era1.insert(key_for(&p, &m, &on, 5), stored(&p, &on, 0.3));
        era1.insert(key_for(&p, &m, &on, 6), stored(&p, &on, 0.25));
        era1.insert(key_for(&p, &m, &off, 7), stored(&p, &off, 0.5));
        era1.insert(key_for(&p, &m, &off, 8), stored(&p, &off, 0.55));
        era1.save().unwrap();

        let mut store = FitnessStore::load(&path);
        assert_eq!(store.generation(), 2);
        let no_decay = PriorConfig::default();
        let prior_plain = mine_prior(&mut store, &p, Arch::X86, &m, &no_decay);
        // Default: no decay — weighted support equals raw counts exactly
        // (the bit-for-bit guarantee at the statistics level; run-level
        // equality is pinned by the differential harness).
        assert_eq!(
            prior_plain.marginals[0].w_on,
            prior_plain.marginals[0].n_on as f64
        );
        // Old era dominates the undecayed average (bigger contrast).
        assert!(prior_plain.marginals[0].potency() > 0.0);

        let decay = PriorConfig {
            decay_half_life: 0.25, // era 0 is 8 half-lives old
            ..PriorConfig::default()
        };
        let prior_decayed = mine_prior(&mut store, &p, Arch::X86, &m, &decay);
        assert!(
            prior_decayed.marginals[0].potency() < 0.0,
            "recent era must win under decay: {}",
            prior_decayed.marginals[0].potency()
        );
        assert!(prior_decayed.marginals[0].w_on < prior_plain.marginals[0].w_on);
        // Seeds are never decayed: the stored best config (an old-era
        // 0.9) still transfers.
        assert_eq!(prior_decayed.seeds, prior_plain.seeds);
        assert_eq!(prior_decayed.seed_best_fitness, Some(0.9));
        // Same records mined either way.
        assert_eq!(prior_decayed.mined_records, prior_plain.mined_records);
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn bias_weights_are_confident_potency_scaled_and_bounded() {
        let p = profile();
        let m = module("429.mcf");
        let cfg = PriorConfig {
            min_support: 2,
            bias_span: 0.5,
            ..Default::default()
        };
        let mut store = FitnessStore::in_memory();
        store.record_module_features(m.content_hash(), m.features());
        // Flag 0 on => fitness high; flag 0 off => low. Everything else
        // constant: flag 0 should get the top weight.
        for (i, (on, fit)) in [(true, 0.9), (true, 0.8), (false, 0.2), (false, 0.3)]
            .into_iter()
            .enumerate()
        {
            let mut flags = vec![false; p.n_flags()];
            flags[0] = on;
            store.insert(
                key_for(&p, &m, &flags, i as u128 + 1),
                stored(&p, &flags, fit),
            );
        }
        let prior = mine_prior(&mut store, &p, Arch::X86, &m, &cfg);
        let bias = prior.mutation_bias(&cfg);
        let w = bias.weights().expect("non-uniform");
        assert_eq!(w.len(), p.n_flags());
        let span_ok = w.iter().all(|&x| (0.5..=1.5).contains(&x));
        assert!(span_ok, "weights escape the configured band");
        let max = w.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(w[0], max, "the planted potent flag gets the top weight");
        assert!(w[0] > 1.0);
        assert!(prior.biased_flag_count(&cfg) > 0);
    }
}
