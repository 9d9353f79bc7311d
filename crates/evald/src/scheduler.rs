//! Shard dispatch from one queue.
//!
//! A batch of genomes is split into *shards* — contiguous chunks of
//! [`shard_size`] genomes, about four per client — and fed to clients
//! from one queue: clients pull the next pending shard whenever they
//! finish one, so a slow client simply contributes fewer shards instead
//! of stalling the batch behind a fixed stripe.
//!
//! A shard has at most one holder. An idle client is never handed a
//! copy of a shard another client holds: the server ends a batch only
//! once every shard has a result *and* no client holds a dispatch, so a
//! copy could never end a batch sooner — it would only double a shard's
//! work and stretch the batch tail. A shard goes back to the queue only
//! when its holder is lost or evicted ([`Scheduler::client_dead`]).
//!
//! The scheduler is plain data behind the server's event loop — no locks
//! of its own, no threads, fully unit-testable.

use btel::Ewma;
use std::collections::{BTreeMap, VecDeque};

/// EWMA smoothing for observed per-genome dispatch time. 0.3 ≈ the
/// last ~5 shards dominate: fast enough to track a warming cache (early
/// shards compile, later ones hit), slow enough that one noisy shard
/// does not whipsaw the dispatch deadline.
const COST_EWMA_ALPHA: f64 = 0.3;

/// Observed shards required before the measured estimate sets dispatch
/// deadlines (one shard is noise; a handful is signal).
pub const MIN_COST_OBSERVATIONS: u64 = 3;

/// Shards per client in one batch — enough granularity that pulling
/// from one queue rebalances a 2–3x speed skew.
const SHARDS_PER_CLIENT: usize = 4;

/// Shard size for a batch of `genomes` across `clients`: about four
/// shards per client, at least one genome each.
pub fn shard_size(genomes: usize, clients: usize) -> usize {
    genomes.div_ceil(clients.max(1) * SHARDS_PER_CLIENT).max(1)
}

/// Per-client dispatch time, as the server measures it: the wall time
/// from sending a shard's `Work` frame to receiving its `Result`, per
/// genome, folded into a per-client EWMA. The figure includes transport
/// and any worker-side delay, and no worker reports it, so no worker
/// can forge it. The server scales its dispatch deadlines with
/// [`CostModel::observed_secs_per_genome`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostModel {
    /// EWMA of observed seconds-per-genome, per client (the shared
    /// [`btel::Ewma`] estimator).
    per_client: BTreeMap<u32, Ewma>,
    /// Shard observations folded in so far.
    observations: u64,
}

impl CostModel {
    /// Fold one answered dispatch into the model: `client` answered a
    /// shard of `genomes` genomes `wall_seconds` after it was sent.
    /// Non-finite or negative measurements and empty shards are
    /// ignored — the model must never be poisoned into NaN deadlines.
    /// The non-finite/negative guard lives in [`btel::Ewma::observe`],
    /// shared with the daemon's rate estimators.
    pub fn observe(&mut self, client: u32, genomes: usize, wall_seconds: f64) {
        if genomes == 0 {
            return;
        }
        let per = wall_seconds / genomes as f64;
        let mut ewma = self
            .per_client
            .get(&client)
            .copied()
            .unwrap_or_else(|| Ewma::new(COST_EWMA_ALPHA));
        if !ewma.observe(per) {
            return;
        }
        debug_assert!(ewma.value().is_some_and(f64::is_finite));
        self.per_client.insert(client, ewma);
        self.observations += 1;
    }

    /// Drop `client`'s estimate: the server calls this when it drops
    /// the client, so a lost or evicted client no longer widens the
    /// deadlines of the clients that remain. The observation count is
    /// telemetry and keeps counting every dispatch ever timed.
    pub fn forget(&mut self, client: u32) {
        self.per_client.remove(&client);
    }

    /// Shard observations folded in so far (telemetry).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The converged estimate: mean of the per-client EWMAs of the
    /// clients not yet forgotten, or `None` while fewer than
    /// [`MIN_COST_OBSERVATIONS`] shards have been observed or no client
    /// has an estimate.
    pub fn observed_secs_per_genome(&self) -> Option<f64> {
        if self.observations < MIN_COST_OBSERVATIONS || self.per_client.is_empty() {
            return None;
        }
        let sum: f64 = self
            .per_client
            .values()
            .filter_map(|e| e.value())
            .sum::<f64>();
        Some(sum / self.per_client.len() as f64)
    }
}

struct ShardState {
    /// Offset of the shard's first genome in the batch.
    start: usize,
    genomes: Vec<Vec<bool>>,
    /// The one client holding this shard, if any.
    assigned: Option<u32>,
    done: bool,
}

/// One batch's dispatch state (see module docs).
pub struct Scheduler {
    base_id: u64,
    shards: Vec<ShardState>,
    pending: VecDeque<usize>,
    completed: usize,
    /// Shards re-queued, to be handed out again, after their holder was
    /// lost or evicted.
    pub redispatched: usize,
}

impl Scheduler {
    /// Split `genomes` into shards of `shard_size`, ids starting at
    /// `base_id` (ids must never be reused across batches, so stale
    /// results from a previous batch cannot alias a live shard).
    pub fn new(base_id: u64, genomes: &[Vec<bool>], shard_size: usize) -> Scheduler {
        let size = shard_size.max(1);
        let shards: Vec<ShardState> = genomes
            .chunks(size)
            .enumerate()
            .map(|(i, chunk)| ShardState {
                start: i * size,
                genomes: chunk.to_vec(),
                assigned: None,
                done: false,
            })
            .collect();
        let pending = (0..shards.len()).collect();
        Scheduler {
            base_id,
            shards,
            pending,
            completed: 0,
            redispatched: 0,
        }
    }

    /// Number of shards in the batch.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether every shard has a result.
    pub fn all_done(&self) -> bool {
        self.completed == self.shards.len()
    }

    /// Hand `client` the next pending shard, making it the shard's one
    /// holder. `None` when no shard is pending, even if shards are still
    /// outstanding on other clients.
    pub fn next_for(&mut self, client: u32) -> Option<(u64, Vec<Vec<bool>>)> {
        loop {
            let i = self.pending.pop_front()?;
            let s = &mut self.shards[i];
            if s.done {
                continue; // answered while re-queued
            }
            s.assigned = Some(client);
            return Some((self.base_id + i as u64, s.genomes.clone()));
        }
    }

    /// Record a shard result. Returns `Some(start_offset)` for the
    /// *first* result of a live shard (the caller commits the
    /// evaluations at that batch offset); `None` for duplicates and for
    /// ids outside this batch.
    pub fn complete(&mut self, shard: u64) -> Option<usize> {
        let i = usize::try_from(shard.checked_sub(self.base_id)?).ok()?;
        let s = self.shards.get_mut(i)?;
        if s.done {
            return None;
        }
        s.done = true;
        s.assigned = None;
        self.completed += 1;
        Some(s.start)
    }

    /// Expected number of evaluations in `shard`'s result (`None` for a
    /// foreign id).
    pub fn shard_len(&self, shard: u64) -> Option<usize> {
        let i = usize::try_from(shard.checked_sub(self.base_id)?).ok()?;
        self.shards.get(i).map(|s| s.genomes.len())
    }

    /// Forget a dead client: the shards it held go back to the pending
    /// queue for someone else to pick up.
    pub fn client_dead(&mut self, client: u32) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            if !s.done && s.assigned == Some(client) {
                s.assigned = None;
                self.pending.push_back(i);
                self.redispatched += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genomes(n: usize) -> Vec<Vec<bool>> {
        (0..n).map(|i| vec![i % 2 == 0; 4]).collect()
    }

    #[test]
    fn shard_size_gives_each_client_about_four_shards() {
        // ceil(n / (4 × clients)): 16 genomes on 2 clients ship as
        // 8 two-genome shards; the last shard takes the remainder.
        assert_eq!(shard_size(16, 2), 2);
        assert_eq!(shard_size(64, 2), 8);
        assert_eq!(shard_size(17, 2), 3);
        assert_eq!(shard_size(16, 4), 1);
        // Degenerate inputs stay sane: never a zero-genome shard.
        assert_eq!(shard_size(0, 4), 1);
        assert_eq!(shard_size(3, 0), 1);
        assert_eq!(shard_size(3, 8), 1);
    }

    #[test]
    fn ewma_migration_is_bit_identical_to_the_inline_update() {
        // Unit-weight differential: replay the pre-migration inline
        // update (`and_modify` over a plain f64 map) against the
        // btel::Ewma-backed model over an uneven multi-client sequence,
        // and demand the per-client estimates — and therefore every
        // dispatch deadline the model will ever produce — match to the
        // last bit.
        let samples: &[(u32, usize, f64)] = &[
            (0, 4, 0.2),
            (1, 3, 0.33),
            (0, 7, 1.05),
            (0, 1, 0.0001),
            (2, 5, 2.5),
            (1, 4, 0.04),
            (0, 6, 0.125),
            (2, 2, 0.9),
        ];
        let mut old: BTreeMap<u32, f64> = BTreeMap::new();
        let mut model = CostModel::default();
        for &(client, genomes, wall) in samples {
            let per = wall / genomes as f64;
            old.entry(client)
                .and_modify(|e| *e = (1.0 - COST_EWMA_ALPHA) * *e + COST_EWMA_ALPHA * per)
                .or_insert(per);
            model.observe(client, genomes, wall);
        }
        assert_eq!(old.len(), model.per_client.len());
        for (client, inline) in &old {
            assert_eq!(
                inline.to_bits(),
                model.per_client[client].value().unwrap().to_bits(),
                "client {client} estimate diverged after the Ewma migration"
            );
        }
        assert_eq!(model.observations(), samples.len() as u64);
    }

    #[test]
    fn a_forgotten_client_leaves_the_estimate() {
        let mut m = CostModel::default();
        for _ in 0..MIN_COST_OBSERVATIONS {
            m.observe(0, 2, 0.2); // slow: 0.1 s per genome
            m.observe(1, 2, 0.002); // fast: 1 ms per genome
        }
        let both = m.observed_secs_per_genome().unwrap();
        assert!((both - 0.0505).abs() < 1e-12, "mean of both: {both}");
        m.forget(0);
        let fast = m.per_client[&1].value().unwrap();
        assert_eq!(m.observed_secs_per_genome(), Some(fast));
        assert_eq!(
            m.observations(),
            2 * MIN_COST_OBSERVATIONS,
            "forgetting keeps the dispatch count"
        );
        m.forget(7); // never observed: a no-op
        assert_eq!(m.observed_secs_per_genome(), Some(fast));
        m.forget(1);
        assert_eq!(m.observed_secs_per_genome(), None, "no live estimate");
    }

    #[test]
    fn cost_model_ignores_degenerate_observations() {
        let mut m = CostModel::default();
        m.observe(0, 0, 1.0); // empty shard
        m.observe(0, 4, f64::NAN);
        m.observe(0, 4, f64::INFINITY);
        m.observe(0, 4, -1.0);
        assert_eq!(m.observations(), 0);
        assert!(m.observed_secs_per_genome().is_none());
        // Shards answered in ~0 seconds are genuine observations: the
        // estimate converges on zero, and the server's deadline floor
        // takes over from there.
        for _ in 0..4 {
            m.observe(0, 8, 0.0);
        }
        assert_eq!(m.observed_secs_per_genome(), Some(0.0));
    }

    #[test]
    fn shards_cover_the_batch_exactly_once() {
        let g = genomes(10);
        let mut sched = Scheduler::new(100, &g, 3);
        assert_eq!(sched.shard_count(), 4); // 3+3+3+1
        let mut seen = vec![false; g.len()];
        while let Some((id, shard)) = sched.next_for(0) {
            let start = sched.complete(id).expect("first result");
            assert_eq!(sched.shard_len(id), Some(shard.len()));
            for (k, genome) in shard.iter().enumerate() {
                assert!(!seen[start + k], "offset {} covered twice", start + k);
                seen[start + k] = true;
                assert_eq!(genome, &g[start + k]);
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(sched.all_done());
        assert_eq!(sched.redispatched, 0);
    }

    #[test]
    fn an_idle_client_is_never_handed_an_outstanding_shard() {
        let g = genomes(4);
        let mut sched = Scheduler::new(0, &g, 2); // 2 shards
        let (a, _) = sched.next_for(0).unwrap();
        let (b, _) = sched.next_for(1).unwrap();
        assert_ne!(a, b);
        // Nothing is pending: an idle client gets nothing, not a copy
        // of a shard another client holds.
        assert!(sched.next_for(2).is_none());
        assert!(sched.next_for(0).is_none());
        assert_eq!(sched.redispatched, 0);
        // The holder's result completes the shard; a second result for
        // it is a duplicate, and foreign ids (earlier batches) are not
        // panics.
        assert!(sched.complete(a).is_some());
        assert!(sched.complete(a).is_none());
        assert!(sched.complete(u64::MAX).is_none());
        assert!(sched.shard_len(u64::MAX).is_none());
        // A completed shard is never re-queued by its holder's death.
        sched.client_dead(0);
        assert!(sched.next_for(2).is_none());
        assert!(!sched.all_done());
        assert!(sched.complete(b).is_some());
        assert!(sched.all_done());
    }

    #[test]
    fn dead_client_work_is_requeued() {
        let g = genomes(6);
        let mut sched = Scheduler::new(10, &g, 2); // 3 shards
        let (a, _) = sched.next_for(0).unwrap();
        let (_b, _) = sched.next_for(1).unwrap();
        let (_c, _) = sched.next_for(2).unwrap();
        // Client 0 dies holding shard `a`: it must come back as pending
        // and be handed to the next asking client.
        let before = sched.redispatched;
        sched.client_dead(0);
        let (re, _) = sched.next_for(1).expect("requeued shard");
        assert_eq!(re, a);
        assert_eq!(
            sched.redispatched,
            before + 1,
            "a shard handed out again after its holder died is a re-dispatch"
        );
        // Death of a client holding nothing is a no-op.
        sched.client_dead(7);
        assert!(sched.next_for(7).is_none());
    }
}
