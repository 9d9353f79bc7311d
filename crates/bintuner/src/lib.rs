//! # bintuner — auto-tuning binary code difference via iterative compilation
//!
//! The paper's primary contribution (§4): a search-based iterative-
//! compilation framework that drives a genetic algorithm over a compiler's
//! optimization-flag space to *maximize* the binary code difference from
//! the `-O0` baseline, using Normalized Compression Distance as the
//! fitness function, a constraint solver to keep flag sequences valid, and
//! a per-iteration database.
//!
//! Also here: the flag-potency analysis of Figure 7 ([`potency`]), the
//! Obfuscator-LLVM analog used in Figure 8(b) ([`obfuscator`]), and the
//! Pearson-correlation utility behind Figure 10.
//!
//! Fitness evaluation — the hot path — runs through the batch
//! [`engine::FitnessEngine`]: whole GA generations are compiled and
//! NCD-scored in parallel across a worker pool, duplicate genomes are
//! served from a memoization cache, and the `-O0` baseline is shared by
//! every evaluation (the paper's client–server split of Figure 4, as an
//! in-process pool). With [`TunerConfig::cache_path`] set, results also
//! persist across runs in a [`store::FitnessStore`] (Figure 4's
//! database, "stored for future exploration"), so re-tuning the same
//! target starts warm; see `docs/ARCHITECTURE.md` for the full map.
//!
//! ## Example
//!
//! ```no_run
//! use bintuner::{Tuner, TunerConfig};
//!
//! let bench = corpus::by_name("462.libquantum").unwrap();
//! let result = Tuner::new(TunerConfig::default())
//!     .tune(&bench.module)
//!     .expect("tuning run");
//! println!(
//!     "{}: NCD {:.3} after {} iterations ({:.0}% cache hits)",
//!     bench.name,
//!     result.best_ncd,
//!     result.iterations,
//!     100.0 * result.db.cache_hit_rate()
//! );
//! ```

#![warn(missing_docs)]

pub mod daemon;
pub mod db;
pub mod engine;
pub mod farm;
pub mod obfuscator;
pub mod potency;
pub mod priors;
pub mod service;
pub mod store;
pub mod tuner;

pub use daemon::{Daemon, DaemonAddr, DaemonClient, DaemonConfig, DaemonHandle};
pub use db::{Database, IterationRow};
pub use engine::{
    EngineConfig, EngineStats, EngineTelemetry, FitnessEngine, MissExecutor, MissResult,
    FAILED_COMPILE_PENALTY,
};
pub use obfuscator::{obfuscate, ObfuscatorConfig};
pub use potency::{
    flag_potency, marginal_potency, marginal_potency_weighted, pearson, FlagMarginal, FlagPotency,
};
pub use priors::{mine_prior, PotencyPrior, PriorConfig, PriorMode};
pub use service::{
    FarmTelemetry, FaultKind, FaultPlan, LivenessConfig, ProcessFarm, ServiceConfig,
    ServiceSummary, TransportKind, WorkerMode,
};
pub use store::{
    shard_for, shard_for_module, ArtifactRetention, ArtifactStore, AstArtifactKey, FitnessStore,
    FlagBits, LoadReport, LowerArtifactKey, PendingArtifacts, SaveOutcome, StoreKey, StoreLock,
    StoreTelemetry, StoredFitness, DEFAULT_SHARD_COUNT,
};
pub use tuner::{PersistSummary, PriorSummary, TuneError, TuneResult, Tuner, TunerConfig};
