//! Torture harness for the sharded (v4) fitness store.
//!
//! The store's contract under fire, pinned four ways:
//!
//! 1. **Torn appends** — a crash mid-`write_all` leaves a prefix of a
//!    shard log. Loading any byte-boundary truncation of any shard must
//!    keep exactly the clean prefix of that shard and every record of
//!    every other shard. Never a panic, never an error.
//! 2. **Compaction and creation crashes** — a stale `shard-NN.log.tmp`
//!    (death before the rename) and a lost or corrupt `manifest` must
//!    both load to the full record set, and the next save/compact must
//!    heal the directory. A half-created store (an empty directory, or
//!    one holding only `manifest.tmp`) loads as a cold start that the
//!    next save completes.
//! 3. **Concurrent stress** — readers, an appending writer, and a
//!    compactor race over one directory. No reader may ever observe a
//!    lost seed record or a phantom record.
//! 4. **Backend independence** — a warm start from one v4 directory
//!    replays a bit-identical tuning trajectory in-process and behind
//!    a farm.
//! 5. **Arbitrary bytes under valid checksums** — a shard record, a
//!    manifest, an artifact-log record or a binary blob that passes its
//!    checksum but carries arbitrary content loads typed: it decodes, or
//!    the file keeps its clean prefix (a blob: reads as absent). Never a
//!    panic. An AST record that decodes but does not validate is a
//!    miss, recomputed bit-identically.
//! 6. **Binary blobs are a cache** — a torn, flipped, foreign, misfiled
//!    or missing blob of a job's baseline or winner makes the job
//!    compile it, with a result bit-identical to a cold run, and the
//!    job's save replaces the file. A blob never vouches for a module
//!    that fails validation.

use binrep::Arch;
use bintuner::{
    ArtifactStore, FitnessStore, SaveOutcome, ServiceConfig, StoreKey, StoredFitness, TuneError,
    TuneResult, Tuner,
};
use minicc::ast::{Expr, Stmt};
use minicc::{fnv1a32, CompileError, Compiler, CompilerKind, EffectConfig, OptLevel, StageKeys};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fs;
use std::path::Path;
use std::thread;
use testutil::{cached_tuner, tiny_loop_module, tune_on_farm, CrashFs, ScratchStore};

/// v4 shard-file geometry (pinned by the store's own unit tests).
const SHARD_HEADER_LEN: u64 = 12;
const RECORD_LEN: u64 = 70;

fn key(module_hash: u64, digest: u128) -> StoreKey {
    StoreKey {
        module_hash,
        compiler: 0,
        arch: 1,
        effect_digest: digest,
    }
}

/// Deterministic seed population spread over many shards: `n` fitness
/// records plus two module-features records.
fn seed_entries(n: u64) -> Vec<(StoreKey, StoredFitness)> {
    (0..n)
        .map(|i| {
            let m = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
            (
                key(m, (u128::from(m) << 64) | u128::from(i)),
                StoredFitness::new(i as f64 * 0.125, i % 5 == 0),
            )
        })
        .collect()
}

/// Build a saved v4 directory at `scratch` holding `entries`.
fn build_store(scratch: &ScratchStore, entries: &[(StoreKey, StoredFitness)]) {
    let mut store = FitnessStore::load(scratch.path());
    for (k, v) in entries {
        store.insert(*k, *v);
    }
    let feats = tiny_loop_module("torture_seed", 2).features();
    store.record_module_features(0x0DD5_EED1, feats);
    store.record_module_features(0x0DD5_EED2, feats);
    assert_eq!(store.save().unwrap(), SaveOutcome::Written);
    assert!(scratch.path().is_dir(), "save must create a directory");
}

/// Full (forced) load: total kept records and the report that goes with
/// them.
fn loaded_records(path: &Path) -> (usize, bintuner::LoadReport) {
    let mut store = FitnessStore::load(path);
    store.len(); // force every shard
    store.modules_with_features();
    (store.report().valid_records, store.report())
}

#[test]
fn torn_shard_tails_keep_the_clean_prefix_at_every_byte_boundary() {
    let scratch = ScratchStore::new("torture_torn");
    let entries = seed_entries(40);
    build_store(&scratch, &entries);
    let fs_view = CrashFs::new(scratch.path());

    let shard_files: Vec<String> = fs_view
        .files()
        .into_iter()
        .filter(|f| f.starts_with("shard-") && f.ends_with(".log"))
        .collect();
    assert!(shard_files.len() > 8, "seed must spread: {shard_files:?}");

    let (total, intact) = loaded_records(scratch.path());
    assert_eq!(total, entries.len() + 2);
    assert_eq!(intact.dropped_bytes, 0);

    for file in &shard_files {
        let len = fs_view.len_of(file);
        assert_eq!(
            (len - SHARD_HEADER_LEN) % RECORD_LEN,
            0,
            "{file}: unaligned"
        );
        let whole = ((len - SHARD_HEADER_LEN) / RECORD_LEN) as usize;
        for cut in 0..len {
            let torn = fs_view.torn_at("torture_torn_cut", file, cut);
            let prefix = if cut < SHARD_HEADER_LEN {
                0 // torn header: the whole shard is dropped, nothing else
            } else {
                ((cut - SHARD_HEADER_LEN) / RECORD_LEN) as usize
            };
            let (got, report) = loaded_records(torn.path());
            assert_eq!(
                got,
                total - whole + prefix,
                "{file} torn at {cut}: kept {got}"
            );
            // Damage is visible in the report, never fatal.
            if cut >= SHARD_HEADER_LEN {
                assert_eq!(
                    report.dropped_bytes as u64,
                    cut - SHARD_HEADER_LEN - (prefix as u64) * RECORD_LEN
                );
            } else {
                // A torn header drops the whole file; whether it still
                // starts with our magic decides which flag it raises.
                assert!(
                    report.malformed_header || report.version_mismatch,
                    "{file} torn at {cut}"
                );
                assert_eq!(report.dropped_bytes as u64, cut);
            }
        }

        // Spot-check at the harshest cut (empty file): every record
        // routed to the *other* shards is still served by key.
        let torn = fs_view.torn_at("torture_torn_zero", file, 0);
        let mut store = FitnessStore::load(torn.path());
        let mut lost = 0usize;
        for (k, v) in &entries {
            match store.get(k) {
                Some(got) => assert_eq!(got.fitness.to_bits(), v.fitness.to_bits()),
                None => lost += 1,
            }
        }
        let fit_whole = entries
            .iter()
            .filter(|(k, _)| {
                bintuner::shard_for(k, store.shard_count()) == file[6..8].parse::<usize>().unwrap()
            })
            .count();
        assert_eq!(lost, fit_whole, "{file}: only its own records may go");
    }
}

#[test]
fn torn_artifact_log_loads_the_clean_prefix() {
    // The artifact sibling follows the same degrade-don't-panic rule.
    let scratch = ScratchStore::new("torture_torn_artifacts");
    build_store(&scratch, &seed_entries(4));
    let mut artifacts = ArtifactStore::load(scratch.path());
    let blob = minicc::codec::encode_module(&tiny_loop_module("torture_art", 3));
    for i in 0..6u128 {
        artifacts.insert_ast(
            bintuner::AstArtifactKey {
                body_hash: 0xA11F + i as u64,
                compiler: 0,
                ast_digest: i,
            },
            10.0,
            blob.clone(),
        );
    }
    assert_eq!(artifacts.save().unwrap(), SaveOutcome::Written);

    let fs_view = CrashFs::new(scratch.path());
    let full_len = fs_view.len_of("artifacts.log");
    let full = ArtifactStore::load(scratch.path()).len();
    assert_eq!(full, 6);
    let mut seen_partial = false;
    for cut in (0..full_len).step_by(7) {
        let torn = fs_view.torn_at("torture_art_cut", "artifacts.log", cut);
        let mut store = ArtifactStore::load(torn.path());
        assert!(store.len() <= full, "cut {cut}");
        seen_partial |= !store.is_empty() && store.len() < full;
    }
    assert!(seen_partial, "cuts must exercise genuine partial loads");
}

#[test]
fn compaction_crash_states_heal_on_the_next_save() {
    let scratch = ScratchStore::new("torture_crash_states");
    let entries = seed_entries(24);
    build_store(&scratch, &entries);
    let fs_view = CrashFs::new(scratch.path());
    let (total, _) = loaded_records(scratch.path());

    // Death between writing a compaction tmp and the rename: the stale
    // tmp must be invisible to loads and swept by the next compaction.
    let victim = fs_view
        .files()
        .into_iter()
        .find(|f| f.starts_with("shard-") && f.ends_with(".log"))
        .unwrap();
    let tmp_name = format!("{victim}.tmp");
    let stale = fs_view.with_file("torture_stale_tmp", &tmp_name, b"half-written garbage");
    assert_eq!(loaded_records(stale.path()).0, total);
    let mut store = FitnessStore::load(stale.path());
    assert_eq!(store.compact().unwrap(), SaveOutcome::Written);
    assert!(
        !stale.path().join(&tmp_name).exists(),
        "compaction must replace the stale tmp"
    );
    assert_eq!(loaded_records(stale.path()).0, total);

    // A lost manifest: geometry is rebuilt from the shard files, and the
    // next save writes a fresh manifest.
    for damaged in [
        fs_view.without_file("torture_no_manifest", "manifest"),
        fs_view.with_file("torture_bad_manifest", "manifest", b"BTFS but wrong"),
    ] {
        let mut store = FitnessStore::load(damaged.path());
        assert_eq!(store.shard_count(), 16, "geometry from shard headers");
        store.len();
        assert_eq!(store.report().valid_records, total);
        for (k, v) in &entries {
            assert_eq!(store.get(k).unwrap().fitness.to_bits(), v.fitness.to_bits());
        }
        assert_eq!(store.save().unwrap(), SaveOutcome::Written);
        drop(store);
        // Healed: the manifest decodes again and nothing was lost.
        let mut healed = FitnessStore::load(damaged.path());
        healed.len();
        assert!(!healed.report().malformed_header);
        assert_eq!(healed.report().valid_records, total);
    }

    // Death while creating a store: right after `create_dir` (an empty
    // directory), or mid-write of the first manifest (only a torn
    // `manifest.tmp`). Either is a cold start, and the next save leaves
    // a clean directory holding every record it wrote.
    let manifest = fs::read(scratch.path().join("manifest")).unwrap();
    for (name, tmp) in [
        ("torture_created_empty", None),
        ("torture_created_tmp", Some(&manifest[..10])),
    ] {
        let partial = ScratchStore::new(name);
        fs::create_dir(partial.path()).unwrap();
        if let Some(bytes) = tmp {
            fs::write(partial.path().join("manifest.tmp"), bytes).unwrap();
        }
        let mut store = FitnessStore::load(partial.path());
        assert!(store.is_empty(), "{name}: not a cold start");
        for (k, v) in &entries {
            store.insert(*k, *v);
        }
        assert_eq!(store.save().unwrap(), SaveOutcome::Written, "{name}");
        drop(store);
        let mut healed = FitnessStore::load(partial.path());
        healed.len();
        let report = healed.report();
        assert!(
            !report.malformed_header && !report.version_mismatch && report.dropped_bytes == 0,
            "{name}: {report:?}"
        );
        assert_eq!(report.valid_records, entries.len(), "{name}");
        for (k, v) in &entries {
            assert_eq!(
                healed.get(k).unwrap().fitness.to_bits(),
                v.fitness.to_bits()
            );
        }
    }
}

#[test]
fn concurrent_readers_writer_and_compactor_lose_nothing() {
    let scratch = ScratchStore::new("torture_concurrent");
    let seeds = seed_entries(32);
    build_store(&scratch, &seeds);
    let dir = scratch.path_buf();

    const WRITES: u64 = 16;
    let writer_key = |i: u64| key(0xA0A0_0000 ^ i, u128::from(i) | (1 << 100));

    thread::scope(|s| {
        let writer = s.spawn(|| {
            for i in 0..WRITES {
                let mut store = FitnessStore::load(&dir);
                store.insert(writer_key(i), StoredFitness::new(i as f64, false));
                // Contended shards are skipped, never corrupted: retry
                // until this record is durably appended.
                while store.save().unwrap() == SaveOutcome::SkippedLocked {
                    thread::yield_now();
                }
            }
        });
        let compactor = s.spawn(|| {
            for _ in 0..8 {
                let mut store = FitnessStore::load(&dir);
                store.len();
                store.compact().unwrap(); // SkippedLocked is fine
                thread::yield_now();
            }
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..30 {
                        let mut store = FitnessStore::load(&dir);
                        // Seed records can never disappear...
                        for (k, v) in &seeds {
                            let got = store.get(k).expect("lost a seed record");
                            assert_eq!(got.fitness.to_bits(), v.fitness.to_bits());
                        }
                        // ...and nothing appears that nobody wrote.
                        for (k, _) in store.entries() {
                            let known = seeds.iter().any(|(s, _)| *s == k)
                                || (0..WRITES).any(|i| writer_key(i) == k);
                            assert!(known, "phantom record {k:?}");
                        }
                        thread::yield_now();
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        compactor.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    });

    // Quiescent state: exactly the seeds plus every confirmed write.
    let mut store = FitnessStore::load(&dir);
    assert_eq!(store.len(), seeds.len() + WRITES as usize);
    for i in 0..WRITES {
        assert_eq!(
            store.get(&writer_key(i)).unwrap().fitness.to_bits(),
            (i as f64).to_bits()
        );
    }
}

/// Trajectory-and-telemetry equality: the strongest form of "the store
/// layout changed nothing about the search".
fn assert_same_run(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(a.best_flags, b.best_flags, "{what}: best genome");
    assert_eq!(
        a.best_ncd.to_bits(),
        b.best_ncd.to_bits(),
        "{what}: fitness"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.stopped_by, b.stopped_by, "{what}: stop reason");
    assert_eq!(a.db.rows().len(), b.db.rows().len(), "{what}: history");
    for (x, y) in a.db.rows().iter().zip(b.db.rows()) {
        assert_eq!(x.flags, y.flags, "{what}: iter {}", x.iteration);
        assert_eq!(
            x.ncd.to_bits(),
            y.ncd.to_bits(),
            "{what}: iter {}",
            x.iteration
        );
        assert_eq!(x.cache_hit, y.cache_hit, "{what}: iter {}", x.iteration);
        assert_eq!(
            x.persistent_hit, y.persistent_hit,
            "{what}: iter {}",
            x.iteration
        );
        assert_eq!(x.ast_reused, y.ast_reused, "{what}: iter {}", x.iteration);
        assert_eq!(
            x.lower_reused, y.lower_reused,
            "{what}: iter {}",
            x.iteration
        );
    }
    assert_eq!(
        a.engine_stats.evaluations, b.engine_stats.evaluations,
        "{what}"
    );
    assert_eq!(
        a.engine_stats.cache_hits, b.engine_stats.cache_hits,
        "{what}"
    );
    assert_eq!(
        a.engine_stats.persistent_hits, b.engine_stats.persistent_hits,
        "{what}"
    );
    assert_eq!(a.engine_stats.compiles, b.engine_stats.compiles, "{what}");
    assert_eq!(
        a.engine_stats.full_compiles, b.engine_stats.full_compiles,
        "{what}"
    );
    assert_eq!(
        a.engine_stats.store_ast_hits, b.engine_stats.store_ast_hits,
        "{what}"
    );
    assert_eq!(
        a.engine_stats.store_lower_hits, b.engine_stats.store_lower_hits,
        "{what}"
    );
}

#[test]
fn warm_tune_is_bit_identical_from_v4_dir_and_service_backend() {
    let module = tiny_loop_module("torture_warm", 6);

    // Fill a v4 store with one cold run.
    let filled = ScratchStore::new("torture_warm_fill");
    Tuner::new(cached_tuner(60, Some(&filled)))
        .tune(&module)
        .unwrap();
    assert!(filled.path().is_dir());

    // Two copies without the artifact sibling, so both warm runs start
    // from the same fitness records alone.
    let fs_view = CrashFs::new(filled.path());
    let v4_a = fs_view.without_file("torture_warm_v4a", "artifacts.log");
    let v4_b = fs_view.without_file("torture_warm_v4b", "artifacts.log");

    let from_v4 = Tuner::new(cached_tuner(60, Some(&v4_a)))
        .tune(&module)
        .unwrap();
    assert!(from_v4.engine_stats.persistent_hits > 0);

    // The deployment shape changes nothing: the same sharded store
    // behind a farm replays the same run.
    let service = tune_on_farm(
        cached_tuner(60, Some(&v4_b)),
        &ServiceConfig::default(),
        &module,
    )
    .unwrap()
    .result;
    assert_same_run(&from_v4, &service, "in-process vs service");
}

#[test]
fn squatted_shard_fails_the_save_with_an_error_and_keeps_every_durable_record() {
    // 5. **ENOSPC mid-append** — the portable stand-in is a directory
    //    squatting a shard log's path: every append and every rewrite
    //    rename against it fails with a genuine `io::Error`, exactly
    //    like a full disk. The contract: the save *reports* the error
    //    (it never panics and never lies `Written`), the in-memory
    //    state survives, and every record that was durable before the
    //    failure is still served afterwards.
    let scratch = ScratchStore::new("torture_enospc");
    let entries = seed_entries(24);
    build_store(&scratch, &entries);
    let fs_view = CrashFs::new(scratch.path());
    let (total, _) = loaded_records(scratch.path());

    // Squat a shard that never materialized (24 seeds over 16 shards
    // leave gaps), so the squat itself destroys no durable data and
    // "clean prefix" means *everything that was there*.
    let count = FitnessStore::load(scratch.path()).shard_count();
    let empty_idx = (0..count)
        .find(|i| !scratch.path().join(format!("shard-{i:02}.log")).exists())
        .expect("the seed population must leave an empty shard");
    let poison_key = (0..4096u128)
        .map(|d| key(0xE05_0000, d))
        .find(|k| bintuner::shard_for(k, count) == empty_idx)
        .expect("4096 digests must hit every shard");

    let damaged = fs_view.with_dir("torture_enospc_squat", &format!("shard-{empty_idx:02}.log"));
    let mut store = FitnessStore::load(damaged.path());
    store.insert(poison_key, StoredFitness::new(0.5, false));
    store
        .save()
        .expect_err("appending into a squatted shard path must error, not lie");
    // The failed save leaves the in-memory store whole — the run that
    // owns it degrades to memory and keeps going.
    assert_eq!(
        store.get(&poison_key).unwrap().fitness.to_bits(),
        0.5f64.to_bits(),
        "in-memory state survives the failed save"
    );

    // On disk: the durable prefix is exactly intact — every seed record
    // served, the never-durable poison record absent, the load clean.
    let (kept, _) = loaded_records(damaged.path());
    assert_eq!(kept, total, "no pre-existing record may be lost");
    let mut reloaded = FitnessStore::load(damaged.path());
    for (k, v) in &entries {
        assert_eq!(
            reloaded.get(k).unwrap().fitness.to_bits(),
            v.fitness.to_bits(),
            "clean prefix record {k:?}"
        );
    }
    assert_eq!(
        reloaded.get(&poison_key),
        None,
        "the lost write stayed lost"
    );
}

#[test]
fn persist_failure_degrades_the_run_to_memory_not_to_an_error() {
    // The same failure through the tuner: a run whose final persist
    // hits the unwritable path must still return `Ok` — fitness
    // results owe nothing to the persistence plane — while flagging
    // `PersistSummary::degraded` so operators see the store fell back
    // to memory. The warm-start data that was already durable keeps
    // serving duplicate runs as pure cache hits.
    let scratch = ScratchStore::new("torture_degrade_run");
    let module = tiny_loop_module("torture_degrade_mod", 6);
    let clean = Tuner::new(cached_tuner(40, Some(&scratch)))
        .tune(&module)
        .expect("warm-up run");
    let summary = clean.persistence.as_ref().expect("store-backed run");
    assert!(!summary.degraded, "healthy save: {:?}", summary.save_error);
    assert!(
        clean.engine_stats.compiles > 0,
        "the warm-up really compiled"
    );
    let (total_before, _) = loaded_records(scratch.path());

    // Squat the manifest: shard appends still land, but the manifest
    // generation bump — part of every record-writing save — fails, so
    // the save reports an error while all prior bytes stay durable.
    let damaged = CrashFs::new(scratch.path()).with_dir("torture_degrade_squat", "manifest");
    let degraded = Tuner::new(bintuner::TunerConfig {
        seed: 0xDE64,
        ..cached_tuner(40, Some(&damaged))
    })
    .tune(&module)
    .expect("a failed persist must not fail the run");
    let summary = degraded.persistence.as_ref().expect("store-backed run");
    assert!(summary.degraded, "the failed save must be flagged");
    assert!(
        summary.save_error.is_some(),
        "the io::Error is carried, not swallowed"
    );

    // Clean prefix: the warm-up's records are all still served — a
    // duplicate of the original run is a pure cache hit, zero compiles.
    let (kept, _) = loaded_records(damaged.path());
    assert!(kept >= total_before, "kept {kept} of {total_before}");
    let replay = Tuner::new(cached_tuner(40, Some(&damaged)))
        .tune(&module)
        .expect("replay on the damaged store");
    assert_eq!(
        replay.engine_stats.compiles, 0,
        "the durable prefix serves the replay entirely from the store"
    );
    assert!(replay.engine_stats.persistent_hits > 0);
}

#[test]
fn an_ast_record_that_fails_validation_is_recomputed_bit_identically() {
    let module = tiny_loop_module("torture_invalid_ast", 4);
    let cold = Tuner::new(cached_tuner(60, None)).tune(&module).unwrap();

    // A record that passes its checksum and decodes, but names a
    // variable nobody declares, under the AST key of every vector the
    // cold run compiled: the same job run against this store fetches it.
    let mut bad = module.clone();
    bad.funcs[0].body = vec![Stmt::Return(Expr::Var("ghost".into()))];
    assert!(bad.validate().is_err());
    let blob = minicc::codec::encode_module(&bad);
    let cc = Compiler::new(CompilerKind::Gcc);
    let scratch = ScratchStore::new("torture_invalid_ast");
    fs::create_dir_all(scratch.path()).unwrap();
    let mut artifacts = ArtifactStore::load(scratch.path());
    for row in cold.db.rows() {
        let eff = EffectConfig::from_flags(cc.profile(), &row.flags);
        let key = bintuner::AstArtifactKey {
            body_hash: module.body_hash(),
            compiler: CompilerKind::Gcc.stable_id(),
            ast_digest: StageKeys::project(&eff).ast.stable_digest(),
        };
        artifacts.insert_ast(key, 1.0, blob.clone());
    }
    assert_eq!(artifacts.save().unwrap(), SaveOutcome::Written);

    let warm = Tuner::new(cached_tuner(60, Some(&scratch)))
        .tune(&module)
        .unwrap();
    assert!(
        warm.engine_stats.store_ast_hits > 0,
        "the job must have fetched a planted record"
    );
    assert_eq!(warm.best_flags, cold.best_flags);
    assert_eq!(warm.best_ncd.to_bits(), cold.best_ncd.to_bits());
    assert_eq!(warm.iterations, cold.iterations);
    assert_eq!(warm.db.rows().len(), cold.db.rows().len());
    for (w, c) in warm.db.rows().iter().zip(cold.db.rows()) {
        assert_eq!(w.flags, c.flags, "iteration {}", w.iteration);
        assert_eq!(
            w.ncd.to_bits(),
            c.ncd.to_bits(),
            "iteration {}",
            w.iteration
        );
    }
}

/// The store key a job on `module` files `flags`' binary under.
fn binary_key(module: &minicc::ast::Module, flags: &[bool]) -> StoreKey {
    let cc = Compiler::new(CompilerKind::Gcc);
    StoreKey::new(
        module.content_hash(),
        CompilerKind::Gcc,
        Arch::X86,
        EffectConfig::from_flags(cc.profile(), flags).stable_digest(),
    )
}

/// `binaries/<key hex>`: where a store files `key`'s blob.
fn blob_file(key: &StoreKey) -> String {
    format!(
        "binaries/{:016x}{:02x}{:02x}{:032x}",
        key.module_hash, key.compiler, key.arch, key.effect_digest
    )
}

#[test]
fn a_bad_or_missing_blob_is_compiled_again_bit_identically_and_replaced() {
    let module = tiny_loop_module("torture_blobs", 6);
    let reference = Tuner::new(cached_tuner(60, None)).tune(&module).unwrap();
    let filled = ScratchStore::new("torture_blobs_fill");
    let cold = Tuner::new(cached_tuner(60, Some(&filled)))
        .tune(&module)
        .unwrap();
    assert_eq!(cold.baseline, reference.baseline);
    assert_eq!(cold.best_binary, reference.best_binary);
    let o0 = Compiler::new(CompilerKind::Gcc)
        .profile()
        .preset(OptLevel::O0);
    let keys = [
        binary_key(&module, &o0),
        binary_key(&module, &cold.best_flags),
    ];
    let [base, best] = keys.map(|k| blob_file(&k));
    assert_ne!(base, best, "the winner must not be the -O0 config");

    // Crash sweeps reach the blobs: a blob torn at any byte reads as
    // absent, and the intact one is served.
    let fs_view = CrashFs::new(filled.path());
    let blobs: Vec<String> = fs_view
        .files()
        .into_iter()
        .filter(|f| f.starts_with("binaries/"))
        .collect();
    assert_eq!(blobs, {
        let mut both = vec![base.clone(), best.clone()];
        both.sort();
        both
    });
    for (key, file) in keys.iter().zip([&base, &best]) {
        assert!(FitnessStore::load(filled.path()).binary(key).is_some());
        for cut in (0..fs_view.len_of(file)).step_by(37) {
            let torn = fs_view.torn_at("torture_blob_cut", file, cut);
            assert_eq!(
                FitnessStore::load(torn.path()).binary(key),
                None,
                "{file} at {cut}"
            );
        }
    }

    // The replay every damaged store must reproduce: the same job on an
    // intact copy, served wholly from the store.
    let intact_store = ScratchStore::snapshot_of("torture_blob_intact", filled.path());
    let intact = Tuner::new(cached_tuner(60, Some(&intact_store)))
        .tune(&module)
        .unwrap();
    let persist = intact.persistence.as_ref().unwrap();
    assert!(persist.baseline_from_store && persist.best_from_store);
    assert_eq!(intact.engine_stats.compiles, 0);
    assert_eq!(intact.baseline, reference.baseline);
    assert_eq!(intact.best_binary, reference.best_binary);

    let read = |f: &str| fs::read(filled.path().join(f)).unwrap();
    let flip = |f: &str| {
        let mut b = read(f);
        let mid = b.len() / 2;
        b[mid] ^= 0x10;
        Some(b)
    };
    let foreign = |f: &str| {
        let mut b = read(f);
        b[..4].copy_from_slice(b"BTFS");
        Some(b)
    };
    let torn = |f: &str| Some(read(f)[..30].to_vec());
    for (what, base_bytes, best_bytes) in [
        ("flipped", flip(&base), flip(&best)),
        ("torn", torn(&base), torn(&best)),
        ("foreign magic", foreign(&base), foreign(&best)),
        ("swapped keys", Some(read(&best)), Some(read(&base))),
        ("missing", None, None),
    ] {
        let store = ScratchStore::snapshot_of("torture_blob_damage", filled.path());
        for (file, bytes) in [(&base, base_bytes), (&best, best_bytes)] {
            match bytes {
                Some(b) => fs::write(store.path().join(file), b).unwrap(),
                None => fs::remove_file(store.path().join(file)).unwrap(),
            }
        }
        let warm = Tuner::new(cached_tuner(60, Some(&store)))
            .tune(&module)
            .unwrap();
        let persist = warm.persistence.as_ref().unwrap();
        assert!(
            !persist.baseline_from_store && !persist.best_from_store,
            "{what}: a bad blob was served"
        );
        assert_same_run(&warm, &intact, what);
        assert_eq!(warm.baseline, reference.baseline, "{what}: baseline");
        assert_eq!(warm.best_binary, reference.best_binary, "{what}: winner");
        // The job's save replaced both files with intact blobs.
        for file in [&base, &best] {
            assert_eq!(
                fs::read(store.path().join(file)).unwrap(),
                read(file),
                "{what}: {file} not replaced"
            );
        }
    }
}

#[test]
fn a_planted_blob_never_vouches_for_an_invalid_module() {
    let mut bad = tiny_loop_module("torture_blob_invalid", 2);
    bad.funcs[0].body = vec![Stmt::Return(Expr::Var("ghost".into()))];
    let want = bad.validate().unwrap_err();
    let o0 = Compiler::new(CompilerKind::Gcc)
        .profile()
        .preset(OptLevel::O0);
    let key = binary_key(&bad, &o0);
    let planted = Compiler::new(CompilerKind::Gcc)
        .compile_preset(
            &tiny_loop_module("torture_blob_valid", 2),
            OptLevel::O0,
            Arch::X86,
        )
        .unwrap();
    let scratch = ScratchStore::new("torture_blob_invalid");
    let mut store = FitnessStore::load(scratch.path());
    store.insert_binary(key, &planted);
    store.save().unwrap();
    assert_eq!(
        FitnessStore::load(scratch.path()).binary(&key),
        Some(planted),
        "the plant is served"
    );
    let err = Tuner::new(cached_tuner(20, Some(&scratch)))
        .tune(&bad)
        .unwrap_err();
    assert_eq!(err, TuneError::Baseline(CompileError::BadModule(want)));
}

/// `payload` framed as the artifact log frames a record: length prefix,
/// payload, FNV-1a checksum.
fn artifact_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&fnv1a32(payload).to_le_bytes());
    rec
}

fn art_key(i: u64) -> bintuner::AstArtifactKey {
    bintuner::AstArtifactKey {
        body_hash: 0xA27 + i,
        compiler: 0,
        ast_digest: u128::from(i),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn arbitrary_shard_records_under_valid_checksums_keep_the_clean_prefix(
        tag in prop_oneof![Just(0u8), Just(1u8), any::<u8>()],
        body in vec(any::<u8>(), 65),
        at in 0usize..=6,
    ) {
        // One shard holds six fitness records; an arbitrary record with
        // a valid checksum goes in after `at` of them. A known tag
        // decodes any body, so every record loads; any other tag is a
        // corrupt tail, and exactly the `at` records before it load.
        let scratch = ScratchStore::new("torture_prop_record");
        let entries = seed_entries(6);
        let mut store = FitnessStore::load_with_shard_count(scratch.path(), 1);
        for (k, v) in &entries {
            store.insert(*k, *v);
        }
        store.save().unwrap();
        let shard = scratch.path().join("shard-00.log");
        let mut bytes = fs::read(&shard).unwrap();
        let mut rec = vec![tag];
        rec.extend_from_slice(&body);
        rec.extend_from_slice(&fnv1a32(&rec).to_le_bytes());
        let off = (SHARD_HEADER_LEN + at as u64 * RECORD_LEN) as usize;
        bytes.splice(off..off, rec);
        fs::write(&shard, &bytes).unwrap();

        let mut loaded = FitnessStore::load(scratch.path());
        loaded.modules_with_features();
        let report = loaded.report();
        let known = tag <= 1;
        let kept = if known { entries.len() + 1 } else { at };
        prop_assert_eq!(report.valid_records, kept);
        let dropped = if known { 0 } else { (entries.len() - at + 1) as u64 * RECORD_LEN };
        prop_assert_eq!(report.dropped_bytes as u64, dropped);
        let mut served = 0;
        for (k, v) in &entries {
            if let Some(got) = loaded.get(k) {
                prop_assert_eq!(got.fitness.to_bits(), v.fitness.to_bits());
                served += 1;
            }
        }
        prop_assert_eq!(served, if known { entries.len() } else { at });
    }

    #[test]
    fn arbitrary_manifests_under_valid_checksums_load_typed(
        magic in prop_oneof![Just(u32::from_le_bytes(*b"BTFS")), any::<u32>()],
        version in prop_oneof![Just(4u32), any::<u32>()],
        count in prop_oneof![Just(0u32), Just(4u32), 1u32..600, any::<u32>()],
        generation in any::<u32>(),
    ) {
        // Four shards hold twelve records. A manifest the store accepts
        // names the geometry: the true one serves every record under the
        // manifest's generation, a wrong one turns every shard foreign
        // (dropped, reported). A manifest it refuses is rebuilt from the
        // shard headers, losing nothing.
        let scratch = ScratchStore::new("torture_prop_manifest");
        let entries = seed_entries(12);
        let mut store = FitnessStore::load_with_shard_count(scratch.path(), 4);
        for (k, v) in &entries {
            store.insert(*k, *v);
        }
        store.save().unwrap();
        let mut manifest = Vec::new();
        for word in [magic, version, count, generation] {
            manifest.extend_from_slice(&word.to_le_bytes());
        }
        manifest.extend_from_slice(&fnv1a32(&manifest).to_le_bytes());
        fs::write(scratch.path().join("manifest"), &manifest).unwrap();

        let mut loaded = FitnessStore::load(scratch.path());
        let len = loaded.len();
        let report = loaded.report();
        let accepted = magic.to_le_bytes() == *b"BTFS"
            && version == 4
            && (1..=65_535).contains(&count);
        if !accepted {
            prop_assert!(report.malformed_header);
            prop_assert_eq!(loaded.shard_count(), 4);
            prop_assert_eq!(len, entries.len());
        } else if count == 4 {
            prop_assert_eq!(loaded.generation(), generation);
            prop_assert_eq!(len, entries.len());
            prop_assert_eq!(report.dropped_bytes, 0);
        } else {
            prop_assert_eq!(len, 0);
            prop_assert!(report.version_mismatch && report.dropped_bytes > 0);
        }
    }

    #[test]
    fn arbitrary_blob_payloads_under_valid_checksums_decode_or_read_as_absent(
        raw in vec(any::<u8>(), 0..96),
        flips in vec((any::<u16>(), any::<u8>()), 0..4),
        keep in 0usize..600,
        mutate in any::<bool>(),
    ) {
        // A real blob's header (magic, version, echoed key) and a valid
        // checksum around a payload of arbitrary bytes, or of the real
        // codec bytes with a few bytes changed and the tail cut at
        // `keep`. The store serves a binary that validates for the key's
        // arch, or nothing: never a panic, and the untouched payload is
        // served as it was filed.
        let scratch = ScratchStore::new("torture_prop_blob");
        let module = tiny_loop_module("torture_prop_blob", 3);
        let cc = Compiler::new(CompilerKind::Gcc);
        let o0 = cc.profile().preset(OptLevel::O0);
        let bin = cc.compile(&module, &o0, Arch::X86).unwrap();
        let key = binary_key(&module, &o0);
        let mut store = FitnessStore::load(scratch.path());
        store.insert_binary(key, &bin);
        store.save().unwrap();
        let file = scratch.path().join(blob_file(&key));
        let filed = fs::read(&file).unwrap();
        let (head, rest) = filed.split_at(4 + 4 + 26);
        let real = &rest[..rest.len() - 4];
        let payload = if mutate {
            let mut p = real.to_vec();
            for (at, b) in &flips {
                let i = usize::from(*at) % p.len();
                p[i] = *b;
            }
            p.truncate(keep);
            p
        } else {
            raw
        };
        let mut bytes = head.to_vec();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a32(&bytes).to_le_bytes());
        fs::write(&file, &bytes).unwrap();

        match FitnessStore::load(scratch.path()).binary(&key) {
            Some(got) => {
                prop_assert!(got.validate().is_ok());
                prop_assert_eq!(got.arch, Arch::X86);
                if payload == real {
                    prop_assert_eq!(got, bin);
                }
            }
            None => prop_assert!(payload != real, "the filed payload must be served"),
        }
    }

    #[test]
    fn arbitrary_artifact_records_under_valid_checksums_keep_the_clean_prefix(
        tag in prop_oneof![Just(0u8), Just(1u8), any::<u8>()],
        tail in vec(any::<u8>(), 0..80),
        at in 0usize..=3,
    ) {
        // Three AST artifacts, most expensive first; an arbitrary
        // payload with a valid checksum goes in after `at` of them. It
        // indexes when its tag is known and it is long enough for that
        // tag's key and cost (34 bytes for an AST record, 51 for a
        // lowered one); otherwise exactly the `at` records before it are
        // served.
        let scratch = ScratchStore::new("torture_prop_artifact");
        build_store(&scratch, &seed_entries(2));
        let mut artifacts = ArtifactStore::load(scratch.path());
        for i in 0..3u64 {
            artifacts.insert_ast(art_key(i), 3.0 - i as f64, vec![i as u8; 9 + i as usize]);
        }
        artifacts.save().unwrap();
        let log = scratch.path().join("artifacts.log");
        let mut bytes = fs::read(&log).unwrap();
        let mut off = 8;
        for _ in 0..at {
            let p_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 4 + p_len + 4;
        }
        let mut payload = vec![tag];
        payload.extend_from_slice(&tail);
        bytes.splice(off..off, artifact_record(&payload));
        fs::write(&log, &bytes).unwrap();

        let mut loaded = ArtifactStore::load(scratch.path());
        let indexes = match tag {
            0 => payload.len() >= 34,
            1 => payload.len() >= 51,
            _ => false,
        };
        prop_assert_eq!(loaded.len(), if indexes { 4 } else { at });
        prop_assert_eq!(loaded.report().dropped_bytes == 0, indexes);
        for i in 0..3u64 {
            let served = indexes || (i as usize) < at;
            let want = served.then(|| vec![i as u8; 9 + i as usize]);
            prop_assert_eq!(loaded.fetch_ast(&art_key(i)), want);
        }
    }
}
