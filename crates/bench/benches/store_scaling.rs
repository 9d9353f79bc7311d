//! Scaling behaviour of the sharded (v4) persistent fitness store.
//!
//! One row per shard count (1 / 4 / 16), same record population:
//!
//! - `build_ms` / `load_ms` — building a fresh store and a forced full
//!   load of every shard.
//! - `lazy_shards` — shards touched by a single cold `get` (the lazy
//!   index: 1, never the whole store).
//! - `get_us` — in-memory get latency once loaded.
//! - `compact_ms` — full compaction wall.
//! - `save_ok_during` — fraction of appends to *other* shards that land
//!   (`SaveOutcome::Written`) while one shard is being compacted in a
//!   tight loop. This is the column the sharding exists for: with one
//!   shard the compactor's lock starves every writer; with 16 the other
//!   15 shards keep absorbing appends.
//! - `reads_during` — cold reads of other shards completed (and
//!   verified correct) during the same compaction barrage; never
//!   blocked, any geometry.

use bench::print_table;
use bintuner::{shard_for, FitnessStore, SaveOutcome, StoreKey, StoredFitness};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn key(i: u64) -> StoreKey {
    let m = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBE9C;
    StoreKey {
        module_hash: m,
        compiler: (i % 2) as u8,
        arch: 1,
        effect_digest: (u128::from(m) << 64) | u128::from(i),
    }
}

fn main() {
    let records: u64 = if bench::full_run() { 20_000 } else { 4_000 };
    let base = std::env::temp_dir().join(format!("bintuner_store_scaling_{}", std::process::id()));

    let mut rows = Vec::new();
    for shards in [1usize, 4, 16] {
        let dir = base.join(format!("s{shards}"));
        testutil::remove_store(&dir);
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();

        // Build: every record written twice (second generation replaces
        // the first) so half the log is dead and compaction has work.
        let t = Instant::now();
        let mut store = FitnessStore::load_with_shard_count(&dir, shards);
        for round in 0..2u64 {
            for i in 0..records {
                store.insert(
                    key(i),
                    StoredFitness::new(i as f64 + round as f64 * 0.5, false),
                );
            }
            store.save().unwrap();
        }
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(store);

        // Forced full load.
        let t = Instant::now();
        let mut store = FitnessStore::load(&dir);
        assert_eq!(store.len() as u64, records);
        let load_ms = t.elapsed().as_secs_f64() * 1e3;

        // Laziness: one cold get touches exactly one shard.
        let mut lazy = FitnessStore::load(&dir);
        assert!(lazy.get(&key(0)).is_some());
        let lazy_shards = lazy.shards_loaded();
        drop(lazy);

        // In-memory get latency over the loaded store.
        let probes = 10_000u64;
        let t = Instant::now();
        let mut live = 0u64;
        for p in 0..probes {
            live += store.get(&key(p % records)).is_some() as u64;
        }
        let get_us = t.elapsed().as_secs_f64() * 1e6 / probes as f64;
        assert_eq!(live, probes);

        // Full compaction wall (the dead generation goes away).
        let t = Instant::now();
        store.compact().unwrap();
        let compact_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(store);

        // Contention: compact one shard in a tight loop; meanwhile
        // append to (and cold-read from) the *other* shards.
        let victim = shard_for(&key(0), shards);
        let stop = AtomicBool::new(false);
        let (save_ok, save_all, reads) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut compactor = FitnessStore::load(&dir);
                while !stop.load(Ordering::Relaxed) {
                    compactor.compact_shard(victim).unwrap();
                }
            });
            let window = Duration::from_millis(300);
            let t = Instant::now();
            let mut writer = FitnessStore::load(&dir);
            let (mut ok, mut all) = (0u64, 0u64);
            let mut reads = 0u64;
            let mut i = 0u64;
            while t.elapsed() < window {
                // An append routed anywhere but the compacting shard.
                let k = key(records + i);
                if shard_for(&k, shards) != victim || shards == 1 {
                    writer.insert(k, StoredFitness::new(-1.0, false));
                    all += 1;
                    ok += (writer.save().unwrap() == SaveOutcome::Written) as u64;
                }
                // A cold read of a non-compacting shard (fresh handle:
                // hits the disk, not a warm index).
                let probe = key(i % records);
                if shard_for(&probe, shards) != victim {
                    let mut reader = FitnessStore::load(&dir);
                    assert!(reader.get(&probe).is_some(), "read blocked or lost");
                    reads += 1;
                }
                i += 1;
            }
            stop.store(true, Ordering::Relaxed);
            (ok, all, reads)
        });

        rows.push(vec![
            shards.to_string(),
            records.to_string(),
            format!("{build_ms:.1}"),
            format!("{load_ms:.1}"),
            lazy_shards.to_string(),
            format!("{get_us:.2}"),
            format!("{compact_ms:.1}"),
            format!(
                "{:.0}% ({save_ok}/{save_all})",
                100.0 * save_ok as f64 / save_all.max(1) as f64
            ),
            reads.to_string(),
        ]);
        testutil::remove_store(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);

    print_table(
        "Sharded store scaling (same records per geometry; reads verified during compaction)",
        &[
            "shards",
            "records",
            "build_ms",
            "load_ms",
            "lazy_shards",
            "get_us",
            "compact_ms",
            "save_ok_during",
            "reads_during",
        ],
        &rows,
    );
}
