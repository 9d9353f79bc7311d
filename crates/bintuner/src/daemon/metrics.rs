//! The daemon's metrics plane: one always-on btel registry.
//!
//! Every daemon event — submit, reject, claim, finish, cancel, shutdown
//! drain, farm launch and farm failure — is counted once, in a
//! `bintuner_daemon_*` family of the daemon's registry
//! ([`DaemonHandle::registry`](super::DaemonHandle::registry)).
//! [`MetricsSnapshot`] is a read-only view summed from those families;
//! the MetricsText frame and `bintuner metrics` render the registry
//! itself.
//!
//! Unlike the per-run tuner telemetry (opt-in, bound by the Off-mode
//! purity contract), a long-lived multi-tenant service wants its
//! registry live from boot. Updates happen once per job event
//! (admission, claim, cancel, completion), never inside a batch; a
//! per-tenant child is looked up under the registry lock at that point,
//! every other update is a relaxed atomic add on a handle resolved at
//! launch.

use crate::service::FarmTelemetry;
use std::sync::Arc;

/// A per-tenant counter family: its name and help text.
pub(super) type TenantFamily = (&'static str, &'static str);

pub(super) const JOBS: TenantFamily = (
    "bintuner_daemon_jobs_total",
    "Jobs submitted, by tenant (accepted or rejected).",
);
pub(super) const REJECTS: TenantFamily = (
    "bintuner_daemon_rejects_total",
    "Jobs refused at admission, by tenant.",
);
pub(super) const COMPLETED: TenantFamily = (
    "bintuner_daemon_completed_total",
    "Jobs that finished with a result, by tenant.",
);
pub(super) const FAILED: TenantFamily = (
    "bintuner_daemon_failed_total",
    "Jobs that finished with an error (cancelled and expired running jobs included), by tenant.",
);
pub(super) const COMPILES: TenantFamily = (
    "bintuner_daemon_compiles_total",
    "Real compiles performed by completed jobs, by tenant.",
);

/// The daemon's telemetry: its registry, job-span tracer, and the
/// handles of its unlabeled families (see their help texts in
/// [`DaemonTelemetry::new`]), resolved once at launch.
pub(super) struct DaemonTelemetry {
    pub(super) registry: Arc<btel::Registry>,
    /// Job-level spans (one per finished job), served by TraceDump.
    pub(super) tracer: btel::Tracer,
    pub(super) queue_depth: Arc<btel::Gauge>,
    pub(super) running: Arc<btel::Gauge>,
    pub(super) job_seconds: Arc<btel::Histogram>,
    pub(super) cancelled: Arc<btel::Counter>,
    pub(super) persistent_hits: Arc<btel::Counter>,
    pub(super) farm_launches: Arc<btel::Counter>,
    pub(super) farm_failures: Arc<btel::Counter>,
    pub(super) deadline_exceeded: Arc<btel::Counter>,
    pub(super) quarantined: Arc<btel::Counter>,
}

impl DaemonTelemetry {
    pub(super) fn new() -> DaemonTelemetry {
        let registry = Arc::new(btel::Registry::new());
        let counter = |name, help| registry.counter(name, help);
        DaemonTelemetry {
            tracer: btel::Tracer::enabled(1024),
            queue_depth: registry.gauge(
                "bintuner_daemon_queue_depth",
                "Jobs waiting in the admission queue.",
            ),
            running: registry.gauge(
                "bintuner_daemon_running",
                "Jobs currently executing on a runner.",
            ),
            job_seconds: registry.histogram(
                "bintuner_daemon_job_seconds",
                "Wall time of each job from claim to terminal state.",
            ),
            cancelled: counter(
                "bintuner_daemon_cancelled_total",
                "Jobs cancelled while queued, at shutdown, or while running.",
            ),
            persistent_hits: counter(
                "bintuner_daemon_persistent_hits_total",
                "Persistent fitness-store hits of completed jobs.",
            ),
            farm_launches: counter(
                "bintuner_daemon_farm_launches_total",
                "Shared-farm launches (the first batch, relaunches after a loss or a lost worker).",
            ),
            farm_failures: counter(
                "bintuner_daemon_farm_failures_total",
                "Shared-farm launch failures and farm losses mid-batch.",
            ),
            deadline_exceeded: counter(
                "bintuner_daemon_deadline_exceeded_total",
                "Jobs aborted because their submit-time deadline passed.",
            ),
            quarantined: counter(
                "bintuner_daemon_quarantined_total",
                "Jobs failed fast under poison-module quarantine.",
            ),
            registry,
        }
    }

    /// Farm-side telemetry wiring that shares the daemon's registry, so
    /// `bintuner_farm_*` counters (evictions, heartbeat misses,
    /// respawns, backoff) land in the same exposition the MetricsText
    /// frame serves. The farm's span tracer stays disabled — the daemon
    /// records job-level spans itself.
    pub(super) fn farm_telemetry(&self) -> FarmTelemetry {
        FarmTelemetry {
            registry: self.registry.clone(),
            tracer: btel::Tracer::disabled(),
        }
    }

    /// `tenant`'s child of a per-tenant family.
    pub(super) fn tenant(&self, (name, help): TenantFamily, tenant: &str) -> Arc<btel::Counter> {
        self.registry.counter_with(name, help, "tenant", tenant)
    }

    /// A per-tenant family summed over every tenant.
    fn total(&self, (name, _): TenantFamily) -> u64 {
        let registry = &self.registry;
        registry
            .label_values(name)
            .iter()
            .filter_map(|tenant| registry.counter_value(name, Some(tenant)))
            .sum()
    }

    /// The registry read as a [`MetricsSnapshot`].
    pub(super) fn snapshot(&self) -> MetricsSnapshot {
        // Rejects first: a job is counted in `submitted` before it can
        // be rejected, so this order keeps `accepted` from going
        // negative while Submits race the read.
        let rejected = self.total(REJECTS);
        let submitted = self.total(JOBS);
        MetricsSnapshot {
            submitted,
            accepted: submitted.saturating_sub(rejected),
            rejected,
            completed: self.total(COMPLETED),
            failed: self.total(FAILED),
            cancelled: self.cancelled.get(),
            queue_depth: gauge_u64(&self.queue_depth),
            running: gauge_u64(&self.running),
            compiles_total: self.total(COMPILES),
            persistent_hits_total: self.persistent_hits.get(),
            farm_launches: self.farm_launches.get(),
            farm_failures: self.farm_failures.get(),
        }
    }
}

/// A gauge that counts jobs, read as the `u64` the wire carries.
pub(super) fn gauge_u64(gauge: &btel::Gauge) -> u64 {
    u64::try_from(gauge.get()).unwrap_or(0)
}

/// A read-only view of the daemon's registry: per-tenant families are
/// summed over every tenant, and each field is read once, so fields
/// read while jobs run may be a few events apart.
///
/// Counting rules:
/// - Every Submit counts in `submitted`, then in exactly one of
///   `rejected` or `accepted`.
/// - A job a runner finishes counts in exactly one of `completed` or
///   `failed`. A running job that is cancelled, or passes its deadline,
///   is a failure and also counts in its own counter: `cancelled`, or
///   `bintuner_daemon_deadline_exceeded_total`.
/// - A job cancelled while queued, or drained at shutdown, never ran:
///   it counts only in `cancelled`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Submit frames received (`bintuner_daemon_jobs_total`).
    pub submitted: u64,
    /// Jobs admitted to the queue: `submitted − rejected`.
    pub accepted: u64,
    /// Jobs refused at admission (`bintuner_daemon_rejects_total`).
    pub rejected: u64,
    /// Jobs that finished with a result (`bintuner_daemon_completed_total`).
    pub completed: u64,
    /// Jobs that finished with an error (`bintuner_daemon_failed_total`).
    pub failed: u64,
    /// Jobs cancelled (`bintuner_daemon_cancelled_total`).
    pub cancelled: u64,
    /// Jobs waiting in the admission queue (`bintuner_daemon_queue_depth`).
    pub queue_depth: u64,
    /// Jobs executing on a runner (`bintuner_daemon_running`).
    pub running: u64,
    /// Real compiles of completed jobs (`bintuner_daemon_compiles_total`).
    pub compiles_total: u64,
    /// Persistent fitness-store hits of completed jobs
    /// (`bintuner_daemon_persistent_hits_total`).
    pub persistent_hits_total: u64,
    /// Shared-farm launches (`bintuner_daemon_farm_launches_total`).
    pub farm_launches: u64,
    /// Shared-farm failures (`bintuner_daemon_farm_failures_total`).
    pub farm_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_a_view_summed_over_tenants() {
        // The daemon's own updates, event by event. alice submits three
        // jobs: one completes, one is cancelled while queued, one is
        // still queued. bob submits three: one is rejected, one fails,
        // one is running.
        let tel = DaemonTelemetry::new();
        for tenant in ["alice", "alice", "alice", "bob", "bob", "bob"] {
            tel.tenant(JOBS, tenant).inc();
        }
        tel.tenant(REJECTS, "bob").inc();
        tel.queue_depth.add(5);
        tel.farm_launches.inc();
        // Claim alice's first and bob's second, then finish both.
        tel.queue_depth.add(-2);
        tel.running.add(2);
        tel.running.add(-1);
        tel.tenant(COMPLETED, "alice").inc();
        tel.tenant(COMPILES, "alice").add(40);
        tel.persistent_hits.add(3);
        tel.running.add(-1);
        tel.tenant(FAILED, "bob").inc();
        tel.tenant(COMPILES, "bob").add(0);
        tel.farm_failures.inc();
        // Cancel alice's second while queued; claim bob's third.
        tel.queue_depth.add(-1);
        tel.cancelled.inc();
        tel.queue_depth.add(-1);
        tel.running.add(1);
        tel.farm_launches.inc();

        let snap = tel.snapshot();
        assert_eq!(
            snap,
            MetricsSnapshot {
                submitted: 6,
                accepted: 5,
                rejected: 1,
                completed: 1,
                failed: 1,
                cancelled: 1,
                queue_depth: 1,
                running: 1,
                compiles_total: 40,
                persistent_hits_total: 3,
                farm_launches: 2,
                farm_failures: 1,
            }
        );
        assert_eq!(snap.accepted, snap.submitted - snap.rejected);
        let child = |(name, _): TenantFamily, tenant| {
            tel.registry.counter_value(name, Some(tenant)).unwrap_or(0)
        };
        for (family, alice, bob, total) in [
            (JOBS, 3, 3, snap.submitted),
            (REJECTS, 0, 1, snap.rejected),
            (COMPLETED, 1, 0, snap.completed),
            (FAILED, 0, 1, snap.failed),
            (COMPILES, 40, 0, snap.compiles_total),
        ] {
            let name = family.0;
            assert_eq!(
                (child(family, "alice"), child(family, "bob")),
                (alice, bob),
                "{name}"
            );
            assert_eq!(alice + bob, total, "{name}: sum of its tenants");
        }
    }
}
