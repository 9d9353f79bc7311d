//! Unit tests for the sharded fitness store. The cross-process torture
//! cases (torn appends at every byte boundary, crash-during-compaction,
//! reader/writer/compactor stress) live in `tests/store_torture.rs`;
//! these cover the single-process contracts.

use super::shard::{RECORD_LEN, SHARD_HEADER_LEN};
use super::*;

/// Unique scratch path per test (no tempfile crate in the container).
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "bintuner_store_{}_{}.btfs",
        std::process::id(),
        name
    ));
    let _ = fs::remove_file(&p);
    let _ = fs::remove_dir_all(&p);
    p
}

fn cleanup(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_dir_all(path);
    let _ = fs::remove_file(StoreLock::lock_path(path));
}

fn key(i: u64) -> StoreKey {
    StoreKey::new(
        0xAA00 + i,
        CompilerKind::Gcc,
        Arch::X86,
        u128::from(i) << 64 | 0x5EED,
    )
}

fn value(i: u64) -> StoredFitness {
    StoredFitness {
        fitness: i as f64 * 0.125 + 0.25,
        failed: i.is_multiple_of(7),
        flags: FlagBits::from_bools(
            &(0..140)
                .map(|b| (b as u64 + i).is_multiple_of(3))
                .collect::<Vec<_>>(),
        ),
        generation: 0,
    }
}

fn feats(i: u32) -> ModuleFeatures {
    let mut f = ModuleFeatures::default();
    for (j, c) in f.counts.iter_mut().enumerate() {
        *c = i * 10 + j as u32;
    }
    f
}

/// Total record count across every shard log (header bytes excluded) —
/// the sharded analogue of the old single-file size assertions.
fn disk_records(dir: &Path) -> usize {
    let mut records = 0;
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let name = entry.file_name();
        let name = name.to_str().unwrap();
        if name.starts_with("shard-") && name.ends_with(".log") {
            let len = entry.metadata().unwrap().len() as usize;
            assert!(len >= SHARD_HEADER_LEN, "shard file shorter than header");
            assert!(
                (len - SHARD_HEADER_LEN).is_multiple_of(RECORD_LEN),
                "shard file not record-aligned"
            );
            records += (len - SHARD_HEADER_LEN) / RECORD_LEN;
        }
    }
    records
}

#[test]
fn round_trip() {
    let path = scratch("round_trip");
    let mut store = FitnessStore::load(&path);
    assert!(store.report().missing);
    for i in 0..20 {
        store.insert(key(i), value(i));
    }
    store.record_module_features(0xFEA7, feats(3));
    store.save().unwrap();
    assert!(path.is_dir(), "v4 store is a directory");

    let mut reloaded = FitnessStore::load(&path);
    assert_eq!(reloaded.len(), 20);
    assert_eq!(reloaded.report().valid_records, 21);
    assert_eq!(reloaded.report().dropped_bytes, 0);
    for i in 0..20 {
        let got = reloaded.get(&key(i)).unwrap();
        assert_eq!(got.fitness.to_bits(), value(i).fitness.to_bits());
        assert_eq!(got.failed, value(i).failed);
        assert_eq!(got.flags, value(i).flags);
        assert_eq!(got.flags.to_bools().len(), 140);
    }
    assert_eq!(reloaded.get(&key(99)), None);
    assert_eq!(reloaded.module_features(0xFEA7), Some(feats(3)));
    assert_eq!(reloaded.module_features(0xDEAD), None);
    cleanup(&path);
}

#[test]
fn shards_load_lazily_on_first_touch() {
    let path = scratch("lazy");
    let mut store = FitnessStore::load(&path);
    for i in 0..40 {
        store.insert(key(i), value(i));
    }
    store.save().unwrap();

    let mut reloaded = FitnessStore::load(&path);
    assert_eq!(reloaded.shards_loaded(), 0, "manifest load touched shards");
    let probe = key(0);
    assert!(reloaded.get(&probe).is_some());
    assert_eq!(
        reloaded.shards_loaded(),
        1,
        "a get materialized more than its own shard"
    );
    // Re-probing the same shard loads nothing new.
    assert!(reloaded.get(&probe).is_some());
    assert_eq!(reloaded.shards_loaded(), 1);
    // A full scan materializes everything.
    assert_eq!(reloaded.len(), 40);
    assert_eq!(reloaded.shards_loaded(), DEFAULT_SHARD_COUNT);
    cleanup(&path);
}

#[test]
fn flag_bits_round_trip_and_bounds() {
    let v: Vec<bool> = (0..137).map(|i| i % 5 == 0).collect();
    let bits = FlagBits::from_bools(&v);
    assert_eq!(bits.len(), 137);
    assert_eq!(bits.to_bools(), v);
    assert!(!bits.get(500), "out of range reads false");

    assert!(FlagBits::from_bools(&[]).is_empty());
    let too_wide = vec![true; MAX_STORED_FLAGS + 1];
    assert!(FlagBits::from_bools(&too_wide).is_empty());
    let exactly = vec![true; MAX_STORED_FLAGS];
    assert_eq!(FlagBits::from_bools(&exactly).to_bools(), exactly);
}

#[test]
fn appends_accumulate_across_runs() {
    let path = scratch("append");
    let mut first = FitnessStore::load(&path);
    first.insert(key(1), value(1));
    first.save().unwrap();
    assert_eq!(disk_records(&path), 1);

    let mut second = FitnessStore::load(&path);
    assert_eq!(second.len(), 1);
    second.insert(key(2), value(2));
    // Re-inserting an identical entry must not grow the log.
    second.insert(key(1), value(1));
    assert_eq!(second.pending_len(), 1);
    second.save().unwrap();
    assert_eq!(disk_records(&path), 2);
    assert_eq!(FitnessStore::load(&path).len(), 2);
    cleanup(&path);
}

#[test]
fn unchanged_module_features_do_not_grow_the_log() {
    let path = scratch("feat_noop");
    let mut first = FitnessStore::load(&path);
    first.record_module_features(7, feats(1));
    first.save().unwrap();
    assert_eq!(disk_records(&path), 1);

    let mut second = FitnessStore::load(&path);
    second.record_module_features(7, feats(1));
    assert_eq!(second.pending_len(), 0);
    second.save().unwrap();
    assert_eq!(disk_records(&path), 1);

    // Changed features do append (and win on reload).
    let mut third = FitnessStore::load(&path);
    third.record_module_features(7, feats(9));
    third.save().unwrap();
    assert_eq!(FitnessStore::load(&path).module_features(7), Some(feats(9)));
    cleanup(&path);
}

#[test]
fn truncated_shard_keeps_valid_prefix() {
    // A single shard makes the byte arithmetic exact, like the old
    // single-file test (the every-boundary sweep lives in the torture
    // harness).
    let path = scratch("truncated");
    let mut store = FitnessStore::load_with_shard_count(&path, 1);
    for i in 0..5 {
        store.insert(key(i), value(i));
    }
    store.save().unwrap();
    // Tear the last record: a torn append loses only the tail.
    let shard_file = path.join("shard-00.log");
    let bytes = fs::read(&shard_file).unwrap();
    fs::write(&shard_file, &bytes[..bytes.len() - 10]).unwrap();

    let mut recovered = FitnessStore::load(&path);
    assert_eq!(recovered.len(), 4);
    assert_eq!(recovered.report().dropped_bytes, RECORD_LEN - 10);
    // The next save rewrites a clean shard rather than appending after
    // the torn tail.
    recovered.insert(key(9), value(9));
    recovered.save().unwrap();
    let mut clean = FitnessStore::load(&path);
    assert_eq!(clean.len(), 5);
    assert_eq!(clean.report().dropped_bytes, 0);
    cleanup(&path);
}

#[test]
fn save_after_torn_append_truncates_and_appends_cleanly() {
    // The documented cost of the compound race the rename-based lock
    // claim leaves open (see `StoreLock::acquire`): two writers both
    // believe they hold one shard and their appends interleave, the
    // loser's torn. Pin that this degrades exactly to the
    // corruption-tolerant load — whole duplicate records dedup, the
    // torn tail drops, the next save rewrites a clean shard — and
    // never to a wedge or a load failure.
    use std::io::Write as _;
    let path = scratch("lost_race");
    let mut store = FitnessStore::load_with_shard_count(&path, 1);
    for i in 0..4 {
        store.insert(key(i), value(i));
    }
    store.save().unwrap();
    let shard_file = path.join("shard-00.log");
    // The lost racer's unlocked append: one whole record (a duplicate
    // of an existing entry) followed by a half record — the worst
    // interleaving a momentary double-hold can produce.
    let bytes = fs::read(&shard_file).unwrap();
    let start = SHARD_HEADER_LEN;
    let one_record = &bytes[start..start + RECORD_LEN];
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(&shard_file)
        .unwrap();
    f.write_all(one_record).unwrap();
    f.write_all(&one_record[..RECORD_LEN / 2]).unwrap();
    drop(f);

    let mut recovered = FitnessStore::load(&path);
    assert_eq!(recovered.len(), 4, "duplicate dedups, torn tail drops");
    assert_eq!(recovered.report().dropped_bytes, RECORD_LEN / 2);
    // The surviving writer keeps functioning: its next save compacts
    // the damage away and the lock protocol cycles on the repaired
    // shard (the lock file is gone after a successful save).
    recovered.insert(key(8), value(8));
    assert_eq!(recovered.save().unwrap(), SaveOutcome::Written);
    assert!(!StoreLock::lock_path(&shard_file).exists());
    let mut clean = FitnessStore::load(&path);
    assert_eq!(clean.len(), 5);
    assert_eq!(clean.report().dropped_bytes, 0);
    cleanup(&path);
}

#[test]
fn checksum_corruption_drops_damaged_suffix() {
    let path = scratch("corrupt");
    let mut store = FitnessStore::load_with_shard_count(&path, 1);
    for i in 0..6 {
        store.insert(key(i), value(i));
    }
    store.save().unwrap();
    let shard_file = path.join("shard-00.log");
    let mut bytes = fs::read(&shard_file).unwrap();
    // Flip one payload byte in the third record.
    bytes[SHARD_HEADER_LEN + 2 * RECORD_LEN + 5] ^= 0xFF;
    fs::write(&shard_file, &bytes).unwrap();

    let mut recovered = FitnessStore::load(&path);
    assert_eq!(recovered.len(), 2);
    assert!(recovered.report().dropped_bytes > 0);
    cleanup(&path);
}

#[test]
fn foreign_shard_header_is_a_cold_shard() {
    let path = scratch("foreign_shard");
    let mut store = FitnessStore::load_with_shard_count(&path, 2);
    for i in 0..8 {
        store.insert(key(i), value(i));
    }
    store.save().unwrap();
    let n_in_00 = {
        let mut s = FitnessStore::load(&path);
        s.len();
        s.shard_entry_counts()[0]
    };
    assert!(n_in_00 > 0, "test premise: shard 0 holds something");
    // A shard file moved in from a different-geometry store fails its
    // header check: that shard cold-starts, the rest are untouched.
    fs::write(path.join("shard-00.log"), b"BTFS????not ours").unwrap();
    let mut recovered = FitnessStore::load(&path);
    assert_eq!(recovered.len(), 8 - n_in_00);
    assert!(recovered.report().version_mismatch || recovered.report().malformed_header);
    // The next save heals the cold shard wholesale.
    recovered.insert(key(0), value(0));
    recovered.save().unwrap();
    let mut healed = FitnessStore::load(&path);
    assert_eq!(healed.len(), 8 - n_in_00 + 1);
    cleanup(&path);
}

#[test]
fn version_mismatch_is_a_cold_start() {
    let path = scratch("version");
    // An older (v3 single-file) and a hypothetical newer store: both are
    // cold starts.
    for version in [3u32, FORMAT_VERSION + 1] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 70]);
        fs::write(&path, &bytes).unwrap();

        let mut store = FitnessStore::load(&path);
        assert!(store.is_empty(), "v{version}");
        assert!(store.report().version_mismatch, "v{version}");
        // Saving replaces the stale file with a current-version directory
        // holding exactly this save's records.
        store.insert(key(3), value(3));
        store.save().unwrap();
        assert!(path.is_dir());
        let mut reloaded = FitnessStore::load(&path);
        assert!(!reloaded.report().version_mismatch);
        assert_eq!(reloaded.len(), 1);
        assert_eq!(
            reloaded.get(&key(3)).unwrap().fitness.to_bits(),
            value(3).fitness.to_bits()
        );
        cleanup(&path);
    }
}

#[test]
fn garbage_file_is_a_cold_start() {
    let path = scratch("garbage");
    fs::write(&path, b"definitely not a fitness store").unwrap();
    let mut store = FitnessStore::load(&path);
    assert!(store.is_empty());
    assert!(store.report().malformed_header);
    cleanup(&path);
}

#[test]
fn damaged_manifest_recovers_from_shard_files() {
    let path = scratch("manifest");
    let mut store = FitnessStore::load_with_shard_count(&path, 4);
    for i in 0..12 {
        store.insert(key(i), value(i));
    }
    store.save().unwrap();
    fs::write(path.join("manifest"), b"scribble").unwrap();

    let mut recovered = FitnessStore::load(&path);
    assert!(recovered.report().malformed_header);
    assert_eq!(recovered.shard_count(), 4, "geometry not recovered");
    assert_eq!(recovered.len(), 12, "records lost with the manifest");
    // The next save heals the manifest.
    recovered.save().unwrap();
    let mut healed = FitnessStore::load(&path);
    assert!(!healed.report().malformed_header);
    assert_eq!(healed.len(), 12);
    cleanup(&path);
}

#[test]
fn per_shard_compaction_shrinks_a_log_dominated_by_dead_records() {
    let path = scratch("compact");
    // Overwrite the same key with changing values across many saves:
    // its shard accumulates dead records until compaction rewrites it.
    for round in 0..(shard::COMPACT_MIN_RECORDS as u64 + 8) {
        let mut store = FitnessStore::load(&path);
        store.insert(key(0), StoredFitness::new(round as f64, false));
        store.record_module_features(0xC0, feats(0));
        store.save().unwrap();
    }
    let mut final_store = FitnessStore::load(&path);
    assert_eq!(final_store.len(), 1);
    assert_eq!(final_store.module_features(0xC0), Some(feats(0)));
    assert!(
        disk_records(&path) < shard::COMPACT_MIN_RECORDS / 2,
        "shard never compacted: {} records",
        disk_records(&path)
    );
    // Atomic rewrite leaves no temp droppings.
    for entry in fs::read_dir(&path).unwrap().flatten() {
        assert!(
            !entry.file_name().to_str().unwrap().ends_with(".tmp"),
            "tmp dropping: {:?}",
            entry.file_name()
        );
    }
    cleanup(&path);
}

#[test]
fn explicit_compaction_is_per_shard() {
    let path = scratch("compact_one");
    let mut store = FitnessStore::load_with_shard_count(&path, 4);
    for i in 0..32 {
        store.insert(key(i), value(i));
    }
    store.save().unwrap();

    let mut store = FitnessStore::load(&path);
    let before: Vec<u64> = (0..4)
        .map(|i| fs::metadata(path.join(format!("shard-{i:02}.log"))).map_or(0, |m| m.len()))
        .collect();
    assert_eq!(store.compact_shard(1).unwrap(), SaveOutcome::Written);
    let after: Vec<u64> = (0..4)
        .map(|i| fs::metadata(path.join(format!("shard-{i:02}.log"))).map_or(0, |m| m.len()))
        .collect();
    // Only shard 1's file was touched (all-live shards keep their size).
    assert_eq!(before[0], after[0]);
    assert_eq!(before[2], after[2]);
    assert_eq!(before[3], after[3]);
    assert_eq!(before[1], after[1], "all-live compaction changed content");
    assert_eq!(FitnessStore::load(&path).len(), 32);
    cleanup(&path);
}

#[test]
fn in_memory_store_save_is_a_noop() {
    let mut store = FitnessStore::in_memory();
    store.insert(key(1), value(1));
    assert_eq!(store.save().unwrap(), SaveOutcome::Written);
    assert_eq!(store.pending_len(), 0);
    assert_eq!(store.len(), 1);
    assert!(store.path().is_none());
}

#[test]
fn generation_advances_one_per_load_save_cycle() {
    let path = scratch("generation");
    // Run 0: fresh store stamps generation 0.
    let mut run0 = FitnessStore::load(&path);
    assert_eq!(run0.generation(), 0);
    run0.insert(key(0), value(0));
    run0.save().unwrap();
    // Run 1: the manifest carries the next generation; old records keep
    // their age.
    let mut run1 = FitnessStore::load(&path);
    assert_eq!(run1.generation(), 1);
    run1.insert(key(1), value(1));
    // Re-inserting an identical value must NOT refresh its age.
    run1.insert(key(0), value(0));
    run1.save().unwrap();

    let mut run2 = FitnessStore::load(&path);
    assert_eq!(run2.generation(), 2);
    assert_eq!(run2.get(&key(0)).unwrap().generation, 0);
    assert_eq!(run2.get(&key(1)).unwrap().generation, 1);
    // A caller-supplied generation is overwritten by the stamp.
    run2.insert(
        key(7),
        StoredFitness {
            generation: 999,
            ..value(7)
        },
    );
    assert_eq!(run2.get(&key(7)).unwrap().generation, 2);
    run2.save().unwrap();
    // A save with no fitness written does not burn a generation.
    let mut idle = FitnessStore::load(&path);
    assert_eq!(idle.generation(), 3);
    idle.save().unwrap();
    assert_eq!(FitnessStore::load(&path).generation(), 3);
    cleanup(&path);
}

/// The generation the store at `path` records for its next load.
fn manifest_generation(path: &Path) -> u32 {
    read_manifest(path).expect("readable manifest").1
}

#[test]
fn manifest_generation_never_goes_backwards() {
    // Two store values on one directory: `late` loads, other short
    // load→save cycles advance the manifest, then `late` saves. Once
    // with `late` loaded from an existing directory (generation 1), once
    // with it loaded from a missing path that the other cycles create,
    // so its save adopts their directory — and their shard count.
    for (name, cycles_before, cycles_between, late_shards) in [
        ("gen_steady", 1, 2, DEFAULT_SHARD_COUNT),
        ("gen_adopt", 0, 3, 4),
    ] {
        let path = scratch(name);
        let mut next_key = 0u64;
        let mut cycle = || {
            let mut s = FitnessStore::load(&path);
            s.insert(key(next_key), value(next_key));
            next_key += 1;
            s.save().unwrap();
        };
        for _ in 0..cycles_before {
            cycle();
        }
        let mut late = FitnessStore::load_with_shard_count(&path, late_shards);
        let mut high = 0;
        for _ in 0..cycles_between {
            cycle();
            assert!(manifest_generation(&path) >= high, "{name}");
            high = manifest_generation(&path);
        }
        assert_eq!(high, 3, "{name}: test premise");
        late.insert(key(99), value(99));
        assert_eq!(late.save().unwrap(), SaveOutcome::Written);
        assert!(
            manifest_generation(&path) >= high,
            "{name}: manifest went from {high} to {}",
            manifest_generation(&path)
        );

        let mut next = FitnessStore::load(&path);
        let generation = next.generation();
        assert_eq!(next.shard_count(), DEFAULT_SHARD_COUNT, "{name}");
        assert_eq!(next.len(), cycles_before + cycles_between + 1);
        assert!(
            next.get(&key(99)).is_some(),
            "{name}: late record misrouted"
        );
        for (k, v) in next.entries() {
            assert!(
                v.generation < generation,
                "{name}: {k:?} stamped {} but the next load stamps {generation}",
                v.generation
            );
        }
        cleanup(&path);
    }
}

#[test]
fn contended_whole_store_lock_degrades_creation_to_a_skip() {
    let path = scratch("locked");
    let mut store = FitnessStore::load(&path);
    store.insert(key(1), value(1));

    let held = StoreLock::acquire(&path).unwrap().expect("lock free");
    // A second acquire (same path, lock held by a live pid — ours)
    // reports busy instead of stealing.
    assert!(StoreLock::acquire(&path).unwrap().is_none());
    assert_eq!(store.save().unwrap(), SaveOutcome::SkippedLocked);
    // Nothing reached disk; the pending queue survived for a retry.
    assert!(!path.exists());
    assert_eq!(store.pending_len(), 1);

    drop(held);
    assert_eq!(store.save().unwrap(), SaveOutcome::Written);
    assert_eq!(store.pending_len(), 0);
    assert_eq!(FitnessStore::load(&path).len(), 1);
    // The lock file does not outlive the save.
    assert!(!StoreLock::lock_path(&path).exists());
    cleanup(&path);
}

#[test]
fn contended_shard_lock_skips_only_that_shard() {
    let path = scratch("shard_locked");
    FitnessStore::load(&path).save().unwrap(); // nothing yet
    let mut store = FitnessStore::load(&path);
    store.insert(key(1), value(1));
    store.save().unwrap(); // directory now exists

    let mut writer = FitnessStore::load(&path);
    // Two keys routed to two different shards.
    let (a, b) = {
        let mut ks = (0..64).map(key);
        let a = ks.next().unwrap();
        let b = ks
            .find(|k| shard_for(k, writer.shard_count()) != shard_for(&a, writer.shard_count()))
            .expect("two keys in one shard across 64 tries");
        (a, b)
    };
    writer.insert(a, value(50));
    writer.insert(b, value(51));

    let a_file = path.join(format!(
        "shard-{:02}.log",
        shard_for(&a, DEFAULT_SHARD_COUNT)
    ));
    let held = StoreLock::acquire(&a_file).unwrap().expect("lock free");
    assert_eq!(writer.save().unwrap(), SaveOutcome::SkippedLocked);
    // b's shard was written despite a's being locked.
    let mut readback = FitnessStore::load(&path);
    assert!(readback.get(&b).is_some(), "unlocked shard was not written");
    assert!(readback.get(&a).is_none(), "locked shard was written");
    assert_eq!(writer.pending_len(), 1, "skipped shard lost its pending");

    drop(held);
    assert_eq!(writer.save().unwrap(), SaveOutcome::Written);
    assert!(FitnessStore::load(&path).get(&a).is_some());
    cleanup(&path);
}

#[test]
fn stale_lock_of_a_dead_process_is_reclaimed() {
    let path = scratch("stale_lock");
    // No live process has this pid (pid_max is far below u32::MAX).
    fs::write(StoreLock::lock_path(&path), b"4294967294").unwrap();
    let mut store = FitnessStore::load(&path);
    store.insert(key(2), value(2));
    assert_eq!(store.save().unwrap(), SaveOutcome::Written);
    assert_eq!(FitnessStore::load(&path).len(), 1);
    assert!(!StoreLock::lock_path(&path).exists());

    // An *empty* lock file on a shard — an acquire killed between create
    // and pid write — is a torn lock with no identifiable owner:
    // reclaimed, not a permanent wedge.
    let shard_file = path.join(format!(
        "shard-{:02}.log",
        shard_for(&key(3), DEFAULT_SHARD_COUNT)
    ));
    fs::write(StoreLock::lock_path(&shard_file), b"").unwrap();
    store.insert(key(3), value(3));
    assert_eq!(store.save().unwrap(), SaveOutcome::Written);
    assert!(!StoreLock::lock_path(&shard_file).exists());

    // A lock file with garbled non-empty content is foreign: left alone.
    let shard4 = path.join(format!(
        "shard-{:02}.log",
        shard_for(&key(4), DEFAULT_SHARD_COUNT)
    ));
    fs::write(StoreLock::lock_path(&shard4), b"not a pid").unwrap();
    store.insert(key(4), value(4));
    assert_eq!(store.save().unwrap(), SaveOutcome::SkippedLocked);
    fs::remove_file(StoreLock::lock_path(&shard4)).unwrap();
    cleanup(&path);
}

/// 429.mcf at `-O0` and `-O2`: two real binaries for blob tests.
fn two_binaries() -> (Binary, Binary) {
    let cc = minicc::Compiler::new(CompilerKind::Gcc);
    let m = &corpus::by_name("429.mcf").unwrap().module;
    let bin = |level| cc.compile_preset(m, level, Arch::X86).unwrap();
    (bin(minicc::OptLevel::O0), bin(minicc::OptLevel::O2))
}

/// The one blob file under `path`'s `binaries/` for `key`.
fn blob_path(path: &Path, key: &StoreKey) -> PathBuf {
    binaries::binaries_dir(path).join(binaries::file_name(key))
}

#[test]
fn binary_blobs_round_trip_through_a_save() {
    let path = scratch("blob_round_trip");
    let (o0, o2) = two_binaries();
    let mut store = FitnessStore::load(&path);
    assert_eq!(store.binary(&key(0)), None, "no directory yet");
    store.insert(key(0), value(0));
    store.insert_binary(key(0), &o0);
    store.insert_binary(key(1), &o2);
    store.insert_binary(key(1), &o2); // queued once
    assert_eq!(store.save().unwrap(), SaveOutcome::Written);
    let blobs: Vec<_> = fs::read_dir(binaries::binaries_dir(&path))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(blobs.len(), 2, "one file per key, no tmp left: {blobs:?}");

    let reloaded = FitnessStore::load(&path);
    assert_eq!(reloaded.binary(&key(0)), Some(o0.clone()));
    assert_eq!(reloaded.binary(&key(1)), Some(o2));
    assert_eq!(reloaded.binary(&key(2)), None);

    // Blobs alone create the directory, and an in-memory store keeps
    // none.
    let fresh = scratch("blob_only");
    let mut only = FitnessStore::load(&fresh);
    only.insert_binary(key(0), &o0);
    assert_eq!(only.save().unwrap(), SaveOutcome::Written);
    assert_eq!(FitnessStore::load(&fresh).binary(&key(0)), Some(o0.clone()));
    let mut memory = FitnessStore::in_memory();
    memory.insert_binary(key(0), &o0);
    assert_eq!(memory.save().unwrap(), SaveOutcome::Written);
    assert_eq!(memory.binary(&key(0)), None);
    cleanup(&path);
    cleanup(&fresh);
}

#[test]
fn a_damaged_or_misfiled_blob_reads_as_absent_until_the_next_save() {
    let path = scratch("blob_damage");
    let (o0, o2) = two_binaries();
    let mut store = FitnessStore::load(&path);
    store.insert_binary(key(0), &o0);
    store.insert_binary(key(1), &o2);
    store.save().unwrap();
    let file = blob_path(&path, &key(0));
    let good = fs::read(&file).unwrap();
    let other = fs::read(blob_path(&path, &key(1))).unwrap();
    // A foreign magic under a checksum that matches it: only the magic
    // check can refuse it.
    let mut foreign = good.clone();
    foreign[..4].copy_from_slice(b"BTAS");
    let n = foreign.len();
    let ck = checksum(&foreign[..n - 4]);
    foreign[n - 4..].copy_from_slice(&ck.to_le_bytes());
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x40;
    let damaged: [(&str, Option<Vec<u8>>); 5] = [
        ("flipped payload byte", Some(flipped)),
        ("truncated", Some(good[..good.len() - 9].to_vec())),
        ("foreign magic", Some(foreign)),
        ("another key's blob", Some(other)),
        ("missing", None),
    ];
    for (what, bytes) in damaged {
        match bytes {
            Some(b) => fs::write(&file, b).unwrap(),
            None => fs::remove_file(&file).unwrap(),
        }
        let mut store = FitnessStore::load(&path);
        assert_eq!(store.binary(&key(0)), None, "{what}");
        store.insert_binary(key(0), &o0);
        store.save().unwrap();
        assert_eq!(fs::read(&file).unwrap(), good, "{what}: not replaced");
        assert_eq!(store.binary(&key(0)), Some(o0.clone()), "{what}");
    }
    cleanup(&path);
}

#[test]
fn prune_removes_the_oldest_blobs_first() {
    let path = scratch("blob_prune");
    let (o0, _) = two_binaries();
    let mut store = FitnessStore::load(&path);
    for i in 0..5 {
        store.insert_binary(key(i), &o0);
    }
    store.save().unwrap();
    // Modification times 1000 s apart, oldest first in reverse key
    // order, so the age order is neither the write nor the name order.
    for i in 0..5u64 {
        let f = fs::File::options()
            .write(true)
            .open(blob_path(&path, &key(i)))
            .unwrap();
        f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(10_000 - 1_000 * i))
            .unwrap();
    }
    let blob_len = fs::metadata(blob_path(&path, &key(0))).unwrap().len();
    binaries::prune(&binaries::binaries_dir(&path), 2 * blob_len + 1).unwrap();
    let store = FitnessStore::load(&path);
    let kept: Vec<bool> = (0..5).map(|i| store.binary(&key(i)).is_some()).collect();
    assert_eq!(kept, [true, true, false, false, false]);
    // Within the bound, nothing goes.
    binaries::prune(&binaries::binaries_dir(&path), 2 * blob_len).unwrap();
    assert!(store.binary(&key(1)).is_some());
    cleanup(&path);
}

#[test]
fn a_pruned_blob_is_compiled_again_bit_identically() {
    let path = scratch("blob_pruned_recompiles");
    let module = &corpus::by_name("429.mcf").unwrap().module;
    let config = crate::TunerConfig {
        cache_path: Some(path.clone()),
        termination: genetic::Termination {
            max_evaluations: 30,
            min_evaluations: 15,
            plateau_window: 10,
            ..Default::default()
        },
        ga: genetic::GaParams {
            population: 10,
            ..Default::default()
        },
        workers: 1,
        ..Default::default()
    };
    let cold = crate::Tuner::new(config.clone()).tune(module).unwrap();
    let persist = cold.persistence.as_ref().unwrap();
    assert!(!persist.baseline_from_store && !persist.best_from_store);
    binaries::prune(&binaries::binaries_dir(&path), 0).unwrap();
    assert_eq!(
        fs::read_dir(binaries::binaries_dir(&path)).unwrap().count(),
        0
    );

    let again = crate::Tuner::new(config.clone()).tune(module).unwrap();
    let persist = again.persistence.as_ref().unwrap();
    assert!(!persist.baseline_from_store && !persist.best_from_store);
    assert_eq!(again.engine_stats.compiles, 0, "fitness stays warm");
    assert_eq!(again.baseline, cold.baseline);
    assert_eq!(again.best_binary, cold.best_binary);

    let warm = crate::Tuner::new(config).tune(module).unwrap();
    let persist = warm.persistence.as_ref().unwrap();
    assert!(persist.baseline_from_store && persist.best_from_store);
    assert_eq!(warm.baseline, cold.baseline);
    assert_eq!(warm.best_binary, cold.best_binary);
    cleanup(&path);
}
