//! The compact in-memory index of one shard.
//!
//! A [`ShardIndex`] is what one shard's log file parses into: the live
//! key → fitness map, the per-module features recorded in that shard,
//! the records queued for the next save, and enough disk bookkeeping to
//! decide when compaction is worth a rewrite. The sharded store holds
//! one slot per shard and fills it lazily — a `get` only ever
//! materializes the index of the shard its key routes to.

use super::{LoadReport, PendingRecord, StoreKey, StoredFitness};
use minicc::ModuleFeatures;
use std::collections::HashMap;

/// In-memory state of one shard.
#[derive(Debug, Default)]
pub(super) struct ShardIndex {
    /// Live fitness entries whose keys route to this shard.
    pub entries: HashMap<StoreKey, StoredFitness>,
    /// Per-module shape features routed to this shard by module hash.
    pub features: HashMap<u64, ModuleFeatures>,
    /// Records inserted since the last save, in insertion order.
    pub pending: Vec<PendingRecord>,
    /// Records currently in this shard's file, including dead
    /// (overwritten) ones. Advisory: a concurrent writer's appends are
    /// not counted until the next reload, which only delays compaction.
    pub disk_records: usize,
    /// This shard's file must be rewritten wholesale (corrupt/foreign
    /// content that cannot be appended to).
    pub needs_rewrite: bool,
    /// What loading this shard's file found.
    pub report: LoadReport,
}

impl ShardIndex {
    /// Live record count (fitness entries + features entries) — the
    /// numerator of the compaction heuristic.
    pub fn live(&self) -> usize {
        self.entries.len() + self.features.len()
    }

    /// Whether an insert of `value` under `key` would be a no-op (the
    /// stored fitness and failure bit already match bit-for-bit; the
    /// flag bitmap and generation are advisory metadata). No-op inserts
    /// never grow the log — and never refresh record ages, keeping the
    /// prior miner's decay honest.
    pub fn is_noop_insert(&self, key: &StoreKey, value: &StoredFitness) -> bool {
        self.entries.get(key).is_some_and(|v| {
            v.fitness.to_bits() == value.fitness.to_bits() && v.failed == value.failed
        })
    }

    /// Queued fitness records (features records piggyback on the save
    /// but are identity metadata, not results).
    pub fn pending_fitness(&self) -> usize {
        self.pending
            .iter()
            .filter(|r| matches!(r, PendingRecord::Fitness(..)))
            .count()
    }
}
