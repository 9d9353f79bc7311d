//! Differential tests for the persistent cross-run fitness store: a warm
//! run must converge to the same best genome as the cold run that filled
//! the store, with strictly fewer real compiles; a damaged store must
//! degrade to a cold run, never an error.

use bintuner::{Tuner, TunerConfig};
use std::fs;
use testutil::{cached_tuner, tiny_loop_module, ScratchStore};

fn config(store: Option<&ScratchStore>) -> TunerConfig {
    cached_tuner(90, store)
}

#[test]
fn warm_run_matches_cold_run_with_fewer_compiles() {
    let store = ScratchStore::new("warm_matches_cold");
    let bench = corpus::by_name("429.mcf").unwrap();

    let cold = Tuner::new(config(Some(&store)))
        .tune(&bench.module)
        .unwrap();
    assert_eq!(cold.engine_stats.persistent_hits, 0);
    assert!(cold.engine_stats.compiles > 0);
    let cold_persist = cold.persistence.as_ref().unwrap();
    assert_eq!(cold_persist.loaded_entries, 0);
    assert!(cold_persist.new_entries > 0);
    assert_eq!(cold_persist.save_error, None);

    let warm = Tuner::new(config(Some(&store)))
        .tune(&bench.module)
        .unwrap();

    // Identical run: same best genome, bit-identical fitness, same
    // trajectory length — warm-starting must not change the search.
    assert_eq!(warm.best_flags, cold.best_flags);
    assert_eq!(warm.best_ncd.to_bits(), cold.best_ncd.to_bits());
    assert_eq!(warm.iterations, cold.iterations);
    assert_eq!(warm.stopped_by, cold.stopped_by);

    // Telemetry must agree run-to-run too (failures counted once per
    // distinct config whether computed fresh or served from the store).
    assert_eq!(
        warm.engine_stats.failed_compiles,
        cold.engine_stats.failed_compiles
    );

    // ...while doing strictly less real work.
    assert!(warm.engine_stats.persistent_hits > 0);
    assert!(
        warm.engine_stats.compiles < cold.engine_stats.compiles,
        "warm {} !< cold {}",
        warm.engine_stats.compiles,
        cold.engine_stats.compiles
    );
    let warm_persist = warm.persistence.as_ref().unwrap();
    assert_eq!(warm_persist.loaded_entries, cold_persist.new_entries);
    // An identical re-run discovers nothing new.
    assert_eq!(warm_persist.new_entries, 0);

    // The warm hits surface in the iteration database and its CSV.
    assert!(warm.db.persistent_hit_rate() > 0.0);
    assert_eq!(cold.db.persistent_hit_rate(), 0.0);
    let header = warm.db.to_csv().lines().next().unwrap().to_string();
    assert!(header.contains("persistent_hit"), "{header}");
}

#[test]
fn a_warm_replay_compiles_nothing_and_writes_nothing() {
    let store = ScratchStore::new("warm_replay_zero");
    let bench = corpus::by_name("456.hmmer").unwrap();
    let cold = Tuner::new(config(Some(&store)))
        .tune(&bench.module)
        .unwrap();
    let persist = cold.persistence.as_ref().unwrap();
    assert!(!persist.baseline_from_store && !persist.best_from_store);
    let files = testutil::store_files(store.path());
    assert_eq!(
        files.iter().filter(|f| f.starts_with("binaries/")).count(),
        2,
        "the cold job files its baseline and its winner: {files:?}"
    );

    let before = testutil::store_snapshot(store.path());
    let warm = Tuner::new(config(Some(&store)))
        .tune(&bench.module)
        .unwrap();
    assert_eq!(warm.engine_stats.compiles, 0);
    let persist = warm.persistence.as_ref().unwrap();
    assert!(persist.baseline_from_store, "baseline compiled");
    assert!(persist.best_from_store, "winner recompiled");
    assert_eq!(persist.new_entries, 0);
    assert_eq!(
        testutil::store_snapshot(store.path()),
        before,
        "the replay wrote"
    );

    // The binaries it returns are the ones a compile produces.
    assert_eq!(warm.best_flags, cold.best_flags);
    assert_eq!(warm.best_ncd.to_bits(), cold.best_ncd.to_bits());
    let cc = minicc::Compiler::new(minicc::CompilerKind::Gcc);
    let arch = binrep::Arch::X86;
    assert_eq!(
        warm.best_binary,
        cc.compile(&bench.module, &warm.best_flags, arch).unwrap()
    );
    assert_eq!(
        warm.baseline,
        cc.compile_preset(&bench.module, minicc::OptLevel::O0, arch)
            .unwrap()
    );
}

#[test]
fn corrupt_store_degrades_to_cold_run() {
    let store = ScratchStore::new("corrupt_degrades");
    fs::write(store.path(), b"\x00\x01garbage that is certainly not BTFS").unwrap();
    let bench = corpus::by_name("473.astar").unwrap();

    let from_corrupt = Tuner::new(config(Some(&store)))
        .tune(&bench.module)
        .unwrap();
    let reference = Tuner::new(config(None)).tune(&bench.module).unwrap();

    assert_eq!(from_corrupt.best_flags, reference.best_flags);
    assert_eq!(
        from_corrupt.best_ncd.to_bits(),
        reference.best_ncd.to_bits()
    );
    let persist = from_corrupt.persistence.as_ref().unwrap();
    assert_eq!(persist.loaded_entries, 0);
    assert_eq!(persist.save_error, None);
    assert_eq!(from_corrupt.engine_stats.persistent_hits, 0);

    // The save replaced the garbage with a valid store: a second run now
    // warm-starts.
    let warm = Tuner::new(config(Some(&store)))
        .tune(&bench.module)
        .unwrap();
    assert!(warm.engine_stats.persistent_hits > 0);
    assert_eq!(warm.best_flags, reference.best_flags);
}

#[test]
fn store_separates_modules_profiles_and_arches() {
    let store = ScratchStore::new("key_separation");
    let mcf = corpus::by_name("429.mcf").unwrap();
    let astar = corpus::by_name("473.astar").unwrap();

    let r1 = Tuner::new(config(Some(&store))).tune(&mcf.module).unwrap();
    assert!(r1.persistence.as_ref().unwrap().new_entries > 0);

    // A different module must not hit the first module's entries.
    let r2 = Tuner::new(config(Some(&store)))
        .tune(&astar.module)
        .unwrap();
    assert_eq!(r2.engine_stats.persistent_hits, 0);
    assert!(
        r2.persistence.as_ref().unwrap().loaded_entries
            >= r1.persistence.as_ref().unwrap().new_entries
    );

    // A different arch on the first module is likewise a cold start.
    let mut other_arch = config(Some(&store));
    other_arch.arch = binrep::Arch::Arm;
    let r3 = Tuner::new(other_arch).tune(&mcf.module).unwrap();
    assert_eq!(r3.engine_stats.persistent_hits, 0);

    // Re-tuning the original target still warm-starts through all the
    // unrelated entries.
    let warm = Tuner::new(config(Some(&store))).tune(&mcf.module).unwrap();
    assert!(warm.engine_stats.persistent_hits > 0);
    assert_eq!(warm.best_flags, r1.best_flags);
}

#[test]
fn renamed_module_warm_starts_its_compiles_from_the_artifact_store() {
    // A renamed module invalidates every fitness key (they hash the
    // module *content*, name included) — but the artifact store is
    // keyed by the *body* hash, so the expensive early pipeline stages
    // transfer. The warm run must replay the cold trajectory bit for
    // bit while running strictly fewer full pipelines.
    let store = ScratchStore::new("artifact_warm");
    let first = tiny_loop_module("artifact_warm_a", 6);
    let renamed = tiny_loop_module("artifact_warm_b", 6);

    let cold_reference = Tuner::new(config(None)).tune(&renamed).unwrap();
    Tuner::new(config(Some(&store))).tune(&first).unwrap();

    let warm = Tuner::new(config(Some(&store))).tune(&renamed).unwrap();
    // No fitness key overlaps — all the transfer is artifact-level.
    assert_eq!(warm.engine_stats.persistent_hits, 0);
    assert_eq!(warm.best_flags, cold_reference.best_flags);
    assert_eq!(warm.best_ncd.to_bits(), cold_reference.best_ncd.to_bits());
    assert_eq!(
        warm.engine_stats.compiles,
        cold_reference.engine_stats.compiles
    );
    assert!(
        warm.engine_stats.store_ast_hits > 0,
        "persistent artifacts must serve stage-1 hits"
    );
    assert!(
        warm.engine_stats.full_compiles < cold_reference.engine_stats.full_compiles,
        "warm {} full compiles !< cold {}",
        warm.engine_stats.full_compiles,
        cold_reference.engine_stats.full_compiles
    );
}

#[test]
fn dedup_spends_compile_budget_on_new_configs() {
    let bench = corpus::by_name("462.libquantum").unwrap();
    let plain = Tuner::new(config(None)).tune(&bench.module).unwrap();
    let mut dedup_config = config(None);
    dedup_config.dedup = true;
    let dedup = Tuner::new(dedup_config).tune(&bench.module).unwrap();

    // Re-breeding fired, and the same evaluation budget covered at least
    // as many distinct effect configurations (= real compiles, since
    // each compile is one new config).
    assert!(dedup.skipped_duplicates > 0, "{}", dedup.skipped_duplicates);
    assert_eq!(plain.skipped_duplicates, 0);
    assert!(
        dedup.engine_stats.compiles >= plain.engine_stats.compiles,
        "dedup {} < plain {}",
        dedup.engine_stats.compiles,
        plain.engine_stats.compiles
    );
    // Dedup changes the trajectory but not the quality floor: it still
    // beats or matches the plain run's preset-beating property.
    assert!(dedup.best_ncd > 0.0);
}
