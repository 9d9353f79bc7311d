//! Property suite for the `StoreKey -> shard` routing of the sharded
//! (v4) fitness store.
//!
//! The routing is built on the repo's own [`minicc::StableHasher`], not
//! a std hasher, precisely so these properties can be *pinned*:
//!
//! 1. Assignment never drifts — across runs, platforms, or toolchains
//!    (the pinned-vector test would catch any change to the hash or the
//!    routing seed).
//! 2. It is total and in range for every shard count, including the
//!    degenerate `0`/`1` counts.
//! 3. Corpus-shaped key populations spread usefully over the default
//!    16 shards — no shard starves, none dominates.
//! 4. A record's assigned shard is exactly where the store's first
//!    save physically lands it, record-for-record.

use bintuner::{
    shard_for, shard_for_module, FitnessStore, StoreKey, StoredFitness, DEFAULT_SHARD_COUNT,
};
use proptest::prelude::*;
use std::fs;
use testutil::ScratchStore;

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

#[test]
fn pinned_assignments_never_drift() {
    // Golden vectors: computed once from the stable hash and frozen.
    // A failure here means records written by an older build would be
    // routed to different shards — a silent data-loss bug, not a
    // refactor detail.
    let cases = [
        (key(0, 0), PIN_K0),
        (key(1, 0), PIN_K1),
        (key(0, 1), PIN_K2),
        (
            key(
                0xDEAD_BEEF_CAFE_F00D,
                0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF,
            ),
            PIN_K3,
        ),
        (
            StoreKey {
                module_hash: 42,
                compiler: 1,
                arch: 2,
                effect_digest: 7,
            },
            PIN_K4,
        ),
    ];
    for (k, want) in cases {
        assert_eq!(shard_for(&k, DEFAULT_SHARD_COUNT), want, "{k:?}");
    }
    assert_eq!(shard_for_module(0, DEFAULT_SHARD_COUNT), PIN_M0);
    assert_eq!(shard_for_module(42, DEFAULT_SHARD_COUNT), PIN_M1);
    assert_eq!(
        shard_for_module(0xDEAD_BEEF_CAFE_F00D, DEFAULT_SHARD_COUNT),
        PIN_M2
    );
}

const PIN_K0: usize = 14;
const PIN_K1: usize = 11;
const PIN_K2: usize = 15;
const PIN_K3: usize = 5;
const PIN_K4: usize = 11;
const PIN_M0: usize = 9;
const PIN_M1: usize = 3;
const PIN_M2: usize = 2;

#[test]
#[ignore]
fn print_pins() {
    panic!(
        "K0={} K1={} K2={} K3={} K4={} M0={} M1={} M2={}",
        shard_for(&key(0, 0), DEFAULT_SHARD_COUNT),
        shard_for(&key(1, 0), DEFAULT_SHARD_COUNT),
        shard_for(&key(0, 1), DEFAULT_SHARD_COUNT),
        shard_for(
            &key(
                0xDEAD_BEEF_CAFE_F00D,
                0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF
            ),
            DEFAULT_SHARD_COUNT
        ),
        shard_for(
            &StoreKey {
                module_hash: 42,
                compiler: 1,
                arch: 2,
                effect_digest: 7,
            },
            DEFAULT_SHARD_COUNT
        ),
        shard_for_module(0, DEFAULT_SHARD_COUNT),
        shard_for_module(42, DEFAULT_SHARD_COUNT),
        shard_for_module(0xDEAD_BEEF_CAFE_F00D, DEFAULT_SHARD_COUNT),
    );
}

#[test]
fn corpus_keys_spread_over_the_default_shards() {
    // Key population shaped like real use: every benign corpus module,
    // 32 effect digests each (a tuning run stores one record per
    // distinct effect config).
    let mut counts = vec![0usize; DEFAULT_SHARD_COUNT];
    let mut total = 0usize;
    for bench in corpus::all_benign() {
        let m = bench.content_hash();
        for i in 0..32u128 {
            let k = key(m, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u128::from(m));
            counts[shard_for(&k, DEFAULT_SHARD_COUNT)] += 1;
            total += 1;
        }
    }
    let mean = total / DEFAULT_SHARD_COUNT;
    assert!(mean >= 16, "corpus too small for a meaningful spread");
    for (idx, &c) in counts.iter().enumerate() {
        assert!(c > 0, "shard {idx} starved: {counts:?}");
        assert!(
            c < mean * 3,
            "shard {idx} holds {c} of {total} records (3x the mean): {counts:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn assignment_is_total_deterministic_and_in_range(
        m in any::<u64>(),
        c in any::<u8>(),
        a in any::<u8>(),
        d_hi in any::<u64>(),
        d_lo in any::<u64>(),
        n in 1usize..64,
    ) {
        // The vendored proptest has no `Arbitrary for u128`.
        let d = (u128::from(d_hi) << 64) | u128::from(d_lo);
        let k = StoreKey { module_hash: m, compiler: c, arch: a, effect_digest: d };
        let s = shard_for(&k, n);
        prop_assert!(s < n);
        prop_assert_eq!(s, shard_for(&k, n), "assignment must be pure");
        // Degenerate counts clamp to the single shard.
        prop_assert_eq!(shard_for(&k, 0), 0);
        prop_assert_eq!(shard_for(&k, 1), 0);
        let sm = shard_for_module(m, n);
        prop_assert!(sm < n);
        prop_assert_eq!(sm, shard_for_module(m, n));
        prop_assert_eq!(shard_for_module(m, 0), 0);
    }
}

proptest! {
    // File I/O per case: fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn records_land_in_their_assigned_shard_on_the_first_save(
        seed in any::<u64>(),
        n in 1usize..24,
    ) {
        let entries: Vec<(StoreKey, StoredFitness)> = (0..n)
            .map(|i| {
                let m = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (
                    key(m, (u128::from(m) << 64) | i as u128),
                    StoredFitness::new(i as f64 * 0.25, i % 7 == 0),
                )
            })
            .collect();
        let feats_module = seed.rotate_left(17) | 1;
        let feats = testutil::tiny_loop_module("shard_prop", 2).features();
        let scratch = ScratchStore::new("shard_assignment_first_save");

        // The assignment of every record, computed *before* any shard
        // file exists...
        let mut histogram = [0u64; DEFAULT_SHARD_COUNT];
        for (k, _) in &entries {
            histogram[shard_for(k, DEFAULT_SHARD_COUNT)] += 1;
        }
        histogram[shard_for_module(feats_module, DEFAULT_SHARD_COUNT)] += 1;

        let mut store = FitnessStore::load(scratch.path());
        prop_assert!(store.report().missing);
        for (k, v) in &entries {
            store.insert(*k, *v);
        }
        store.record_module_features(feats_module, feats);
        store.save().unwrap(); // creates the v4 directory

        // ...must match the physical placement after the save, file by
        // file (absent shard file == zero records).
        for (idx, &want) in histogram.iter().enumerate() {
            let path = scratch.path().join(format!("shard-{idx:02}.log"));
            let got = match fs::metadata(&path) {
                Ok(meta) => (meta.len() - SHARD_HEADER_LEN) / RECORD_LEN,
                Err(_) => 0,
            };
            prop_assert_eq!(got, want, "shard {} record count", idx);
        }

        // And the sharded reload serves every record from that shard.
        let mut reloaded = FitnessStore::load(scratch.path());
        let counts = reloaded.shard_entry_counts();
        for (k, v) in &entries {
            let got = reloaded.get(k);
            prop_assert_eq!(
                got.map(|g| g.fitness.to_bits()),
                Some(v.fitness.to_bits())
            );
        }
        prop_assert!(reloaded.module_features(feats_module).is_some());
        prop_assert_eq!(counts.iter().sum::<usize>(), entries.len());
    }
}
