//! The evaluation-service backend: `evald` wired beneath the tuner.
//!
//! This is the glue between the generic client–server machinery in the
//! `evald` crate and BinTuner's fitness evaluation — the paper's actual
//! deployment shape (§5 "Implementation": the GA on a server, compile +
//! diff on a farm of clients), runnable entirely offline:
//!
//! * [`ServiceHandle::launch_with`] spawns N client threads fed over
//!   in-process channels, or N worker processes
//!   ([`WorkerMode::Processes`]) that connect back over a Unix or TCP
//!   socket. Every client runs `farm::run_worker`, so **each client is
//!   a full [`crate::FitnessEngine`]** with its own [`minicc::Compiler`]
//!   instance, its own `-O0` baseline and its own in-run caches, built
//!   from the module the server ships on its `Job` frame.
//! * The server side is the tuner's own engine: partition, the three
//!   cache tiers, the single writable store and the stats all stay where
//!   they were, and only the deduplicated miss list travels — the handle
//!   implements [`MissExecutor`] by pushing each miss batch through
//!   [`evald::EvalServer::evaluate`] (shards pulled from one queue, one
//!   holder per shard, a lost client's shard re-dispatched). Whoever
//!   launches the farm hands it to [`crate::Tuner::tune_with_executor`]
//!   and reads its [`ServiceSummary`] from [`ServiceHandle::finish`].
//!   The daemon keeps one farm for its whole life and switches the
//!   module it serves between batches.
//! * The server engine records every result it receives into the one
//!   writable [`crate::FitnessStore`] itself, so each fitness crosses
//!   the wire once, on its shard's `Result` frame. The stage artifacts
//!   a shard freshly computed ride the same frame; the tuner folds them
//!   into its persistent [`ArtifactStore`] before saving. Appends are
//!   serialized through that single writer, which is what resolves the
//!   concurrent-store-writers problem for the service case (the advisory
//!   file lock covers the separate-processes case).
//!
//! Every fitness an engine computes is a pure function of the genome, so
//! client count, transport, scheduling and even mid-run client death
//! change *nothing* about the run's trajectory — `tests/service_vs_local.rs`
//! (thread clients) and `tests/farm.rs` (worker processes) pin
//! bit-identity against the in-process engine.

use crate::engine::{MissExecutor, MissResult};
use crate::farm::{
    resolve_worker_binary, run_worker, spawn_with_retry, SupervisionCounters, Worker, WorkerSpec,
};
use crate::store::{ArtifactStore, AstArtifactKey, LowerArtifactKey};
use binrep::Arch;
use evald::{
    channel_duplex, Duplex, EvalServer, EvaldError, Listener, ServerTelemetry, WireAstArtifact,
    WireLowerArtifact,
};
use genetic::EvalAbort;
use minicc::ast::Module;
use minicc::{CompilerKind, CompilerProfile};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use evald::{
    FaultKind, FaultPlan, LivenessConfig, ProcessFarm, ServiceConfig, ServiceStats, TransportKind,
    WorkerMode,
};

/// Telemetry wiring for one service launch
/// ([`ServiceHandle::launch_with`]). The registry receives the farm's
/// dispatch-latency histogram and client-churn counters; the tracer
/// receives server-side dispatch spans and the worker stage spans
/// stitched in off `Result` frames. Workers (threads or processes)
/// trace into per-client id ranges when the tracer is enabled, so a
/// stitched trace never has colliding span ids.
#[derive(Debug, Clone)]
pub struct FarmTelemetry {
    /// Metric families for the farm (`bintuner_farm_*`).
    pub registry: Arc<btel::Registry>,
    /// Server-side span recorder.
    pub tracer: btel::Tracer,
}

impl FarmTelemetry {
    /// Resolve the farm's server-side metric handles into an
    /// [`evald::ServerTelemetry`].
    fn server_telemetry(&self) -> ServerTelemetry {
        ServerTelemetry {
            tracer: self.tracer.clone(),
            dispatch_seconds: self.registry.histogram(
                "bintuner_farm_dispatch_seconds",
                "shard dispatch-to-first-result wall clock",
            ),
            redispatched: self.registry.counter(
                "bintuner_farm_redispatched_total",
                "shards handed out again after their client was lost or evicted",
            ),
            clients_joined: self.registry.counter(
                "bintuner_farm_clients_joined_total",
                "clients absorbed after launch (reconnects/respawns)",
            ),
            clients_lost: self
                .registry
                .counter("bintuner_farm_clients_lost_total", "clients lost mid-run"),
            heartbeat_misses: self.registry.counter(
                "bintuner_farm_heartbeat_misses_total",
                "heartbeat probes unanswered past one interval",
            ),
            evictions: self.registry.counter(
                "bintuner_farm_evictions_total",
                "clients evicted by the liveness plane (hung or late)",
            ),
        }
    }

    /// Resolve the respawn-plane metric handles.
    pub(crate) fn supervision_counters(&self) -> SupervisionCounters {
        SupervisionCounters {
            respawns: self.registry.counter(
                "bintuner_farm_respawns_total",
                "worker processes respawned under supervision",
            ),
            backoff_ms: self.registry.counter(
                "bintuner_farm_backoff_ms_total",
                "milliseconds spent in supervised respawn backoff",
            ),
        }
    }
}

/// What the evaluation service did over its life, from
/// [`ServiceHandle::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Transport the run used: [`TransportKind::Channel`] for thread
    /// clients, a socket kind for worker processes.
    pub transport: TransportKind,
    /// Clients launched.
    pub clients: usize,
    /// Clients lost mid-run (all work re-dispatched; the result is
    /// unaffected as long as one client survived).
    pub clients_lost: usize,
    /// Shards dispatched across all batches.
    pub shards: usize,
    /// Shards handed out again after their client was lost or evicted.
    pub redispatched_shards: usize,
    /// Evaluations discarded because their shard already had a result
    /// (a shard has one holder, so a healthy farm reports `0`).
    pub duplicate_results: usize,
    /// Client-produced stage artifacts received on `Result` frames, for
    /// the server-side artifact store.
    pub merged_artifacts: usize,
    /// Clients that joined *after* launch (reconnecting/respawned worker
    /// processes absorbed mid-run).
    pub clients_joined: usize,
    /// Clients the liveness plane evicted (missed heartbeats or a blown
    /// dispatch deadline); a subset of `clients_lost`.
    pub evicted_clients: usize,
    /// Heartbeat probes still unanswered when the next probe fired.
    pub heartbeat_misses: u64,
    /// Worker processes that had to be killed (drain timeout at
    /// shutdown, or the [`ServiceHandle::kill_worker`] chaos hook).
    pub workers_killed: usize,
    /// Dispatch times the server observed and folded into the cost
    /// model its dispatch deadlines scale with.
    pub cost_observations: u64,
}

/// The one topology check: thread workers use the in-process channel,
/// and worker processes use a Unix or TCP socket. Every other pairing
/// is refused with [`EvaldError::Protocol`], by
/// [`ServiceHandle::launch_with`] and, before anything launches, by
/// [`crate::Daemon::launch`].
pub(crate) fn check_topology(cfg: &ServiceConfig) -> Result<(), EvaldError> {
    match (&cfg.workers, cfg.transport) {
        (WorkerMode::Threads, TransportKind::Channel)
        | (WorkerMode::Processes(_), TransportKind::Unix | TransportKind::Tcp) => Ok(()),
        (WorkerMode::Threads, _) => Err(EvaldError::Protocol(
            "thread workers use the channel transport; sockets are for worker processes",
        )),
        (WorkerMode::Processes(_), _) => Err(EvaldError::Protocol(
            "process workers require a stream transport (unix or tcp) \
             — there is no channel across an exec",
        )),
    }
}

/// A launched evaluation service: the dispatch server plus its client
/// threads. Implements [`MissExecutor`], so the tuner installs it
/// beneath its fitness engine with [`crate::FitnessEngine::set_executor`].
///
/// Tear it down with [`ServiceHandle::finish`]; a handle dropped on an
/// error path (e.g. the engine's baseline compile failing after launch)
/// still severs every connection and joins every thread via `Drop`, so
/// no client or reader outlives the run.
pub struct ServiceHandle {
    /// `None` once [`ServiceHandle::finish`] has torn the server down.
    server: Mutex<Option<EvalServer>>,
    /// The service failure behind the most recent batch abort (set when
    /// [`MissExecutor::execute`] returns `Err`; the tuner drains it via
    /// [`ServiceHandle::take_failure`] to build `TuneError::Service`).
    failure: Mutex<Option<Arc<EvaldError>>>,
    /// Thread-mode clients.
    clients: Vec<JoinHandle<()>>,
    /// Process-mode workers (`None` slots are workers already reaped,
    /// e.g. by [`ServiceHandle::kill_worker`]).
    children: Mutex<Vec<Option<std::process::Child>>>,
    /// Everything needed to respawn a worker process
    /// ([`ServiceHandle::spawn_worker`]): where to spawn it from, and the
    /// fault-free worker each respawn runs under a fresh client id.
    spec: Option<(WorkerSpec, Worker)>,
    /// Client ids continue past the initial farm (matches the server's
    /// injector numbering).
    next_worker_id: AtomicU32,
    /// The reconnect path: keeps accepting on the farm's listener and
    /// injects late connections into the running server.
    acceptor: Option<Acceptor>,
    drain_grace_ms: u64,
    workers_killed: AtomicUsize,
    /// Respawn-plane metric handles (`None` without telemetry or in
    /// thread mode — threads are never respawned).
    supervision: Option<SupervisionCounters>,
    transport: TransportKind,
    launched: usize,
}

/// The acceptor thread and its stop flag. The thread owns the farm's
/// [`Listener`], so stopping it also closes the listening socket (and,
/// for a Unix socket, removes the socket file).
struct Acceptor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("transport", &self.transport)
            .field("clients", &self.launched)
            .finish_non_exhaustive()
    }
}

/// Accept worker connections until all `n` have arrived or
/// `deadline_ms` has passed. A worker that died before connecting is
/// never coming, so once every worker is dead, stragglers already in
/// the backlog get a short grace; the handshake then decides with what
/// arrived (`0` ms means "no patience at all").
fn accept_workers(
    listener: &Listener,
    children: &mut [Option<std::process::Child>],
    n: usize,
    deadline_ms: u64,
) -> Result<Vec<Duplex>, EvaldError> {
    let mut accepted = Vec::with_capacity(n);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let mut all_dead_since: Option<Instant> = None;
    while accepted.len() < n {
        match listener.accept() {
            Ok(duplex) => accepted.push(duplex),
            Err(EvaldError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let alive = children
                    .iter_mut()
                    .flatten()
                    .map(|child| child.try_wait())
                    .filter(|status| matches!(status, Ok(None)))
                    .count();
                if alive == 0 {
                    let t = *all_dead_since.get_or_insert_with(Instant::now);
                    if t.elapsed() > Duration::from_millis(250) {
                        break;
                    }
                } else {
                    all_dead_since = None;
                }
                if Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(accepted)
}

impl ServiceHandle {
    /// Launch the service for one module: spawn the client farm,
    /// connect it over the configured transport, complete the
    /// handshake, and install the module as the farm's job (each client
    /// receives it right before its first shard). With
    /// `tel`, the server's dispatch metrics and stitched spans land in
    /// its registry and tracer, and — when the tracer is enabled — every
    /// client traces its compile stages back over the wire. `None` is
    /// the Off-mode purity contract: bit-identical to a pre-telemetry
    /// launch.
    ///
    /// # Errors
    ///
    /// [`EvaldError::Protocol`] for a worker mode and transport that do
    /// not pair (thread workers use the channel; worker processes use a
    /// socket), transport setup failures, or [`EvaldError::NoClients`]
    /// when no client survives the handshake.
    pub fn launch_with(
        cfg: &ServiceConfig,
        kind: CompilerKind,
        module: &Module,
        arch: Arch,
        artifact_cache: bool,
        tel: Option<FarmTelemetry>,
    ) -> Result<ServiceHandle, EvaldError> {
        check_topology(cfg)?;
        let n_clients = cfg.clients.max(1);
        let n_flags = CompilerProfile::new(kind).n_flags() as u16;
        let base = Worker {
            client_id: 0,
            kind,
            arch,
            artifact_cache,
            trace: tel.as_ref().is_some_and(|t| t.tracer.is_enabled()),
            fail_after: None,
            fault_kind: FaultKind::default(),
        };
        // Client `i` of the initial farm, carrying the chaos hook when
        // the fault plan names it.
        let worker = |i: usize| {
            let fault = cfg.fault.filter(|f| f.client == i);
            Worker {
                client_id: i as u32,
                fail_after: fault.map(|f| f.after_shards),
                fault_kind: fault.map(|f| f.kind).unwrap_or_default(),
                ..base.clone()
            }
        };
        let process_farm = match &cfg.workers {
            WorkerMode::Threads => None,
            WorkerMode::Processes(farm) => Some(farm),
        };
        // From here on an error drops `handle`, whose teardown joins every
        // client thread and kills every worker process (the drain grace
        // stays 0 until launch succeeds): a failed launch leaks nothing.
        let mut handle = ServiceHandle {
            server: Mutex::new(None),
            failure: Mutex::new(None),
            clients: Vec::new(),
            children: Mutex::new(Vec::new()),
            spec: None,
            next_worker_id: AtomicU32::new(n_clients as u32),
            acceptor: None,
            drain_grace_ms: 0,
            workers_killed: AtomicUsize::new(0),
            supervision: tel
                .as_ref()
                .filter(|_| process_farm.is_some())
                .map(FarmTelemetry::supervision_counters),
            transport: cfg.transport,
            launched: n_clients,
        };

        let (server_side, acceptor) = match process_farm {
            // One client thread per channel serves shards until the
            // server shuts it down. A client whose engine cannot compile
            // the baseline exits after its greeting; the server sees the
            // disconnect and carries on with the rest.
            None => {
                let mut server_side = Vec::with_capacity(n_clients);
                for i in 0..n_clients {
                    let (server_end, client_end) = channel_duplex();
                    let worker = worker(i);
                    handle.clients.push(std::thread::spawn(move || {
                        // A disconnect is the server going away — normal end of service.
                        let _ = run_worker(client_end, &worker);
                    }));
                    server_side.push(server_end);
                }
                (server_side, None)
            }
            // Pre-fork the worker processes and accept their connections
            // (with a deadline, so a worker that dies before connecting
            // cannot wedge the launch).
            Some(farm) => {
                let binary = resolve_worker_binary(farm.worker_binary.as_ref())?;
                let listener = Listener::bind(cfg.transport, None)?;
                // The accept deadline loop and the acceptor's stop flag
                // both need accept to return instead of parking.
                listener.set_nonblocking()?;
                let endpoint = listener.endpoint().clone();
                let (spec, _) = handle
                    .spec
                    .insert((WorkerSpec { binary, endpoint }, base.clone()));
                let children = handle
                    .children
                    .get_mut()
                    .expect("no thread has seen this mutex yet");
                for i in 0..n_clients {
                    children.push(Some(spawn_with_retry(
                        spec,
                        &worker(i),
                        farm.spawn_attempts,
                        handle.supervision.as_ref(),
                    )?));
                }
                let server_side =
                    accept_workers(&listener, children, n_clients, farm.accept_deadline_ms)?;
                (server_side, Some((listener, farm)))
            }
        };

        let mut server = EvalServer::new(server_side, n_flags)?;
        server.set_liveness(cfg.liveness);
        if let Some(t) = &tel {
            server.set_telemetry(t.server_telemetry());
        }
        // Every worker builds its engine from the job description, which
        // the server sends each client ahead of its first Work frame.
        server.set_job(minicc::codec::encode_module(module));
        if let Some((listener, farm)) = acceptor {
            // The reconnect path: a worker that dies is absorbed on
            // return (or replacement via spawn_worker) by injecting the
            // accepted connection into the running server.
            let injector = server.injector();
            let stop = Arc::new(AtomicBool::new(false));
            let stop_flag = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok(duplex) => {
                            injector.inject(duplex);
                        }
                        // Teardown unparks this wait, so a stop is prompt.
                        Err(_) => std::thread::park_timeout(Duration::from_millis(15)),
                    }
                }
                // `listener` drops here: socket closed, Unix file removed.
            });
            handle.acceptor = Some(Acceptor { stop, thread });
            handle.drain_grace_ms = farm.drain_grace_ms;
        }
        handle.server = Mutex::new(Some(server));
        Ok(handle)
    }

    /// Chaos hook: SIGKILL worker process `idx` (zero-based launch
    /// order). Returns `false` when there is no live worker at that
    /// index (thread mode, out of range, or already killed). The
    /// running batch recovers by re-dispatching the worker's shard.
    pub fn kill_worker(&self, idx: usize) -> bool {
        let mut children = self.children.lock().unwrap();
        let Some(slot) = children.get_mut(idx) else {
            return false;
        };
        let Some(mut child) = slot.take() else {
            return false;
        };
        let _ = child.kill();
        let _ = child.wait();
        self.workers_killed.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Spawn one additional worker process connecting to the running
    /// farm (the replacement half of the reconnect story). Returns the
    /// client id the worker announces.
    ///
    /// # Errors
    ///
    /// Unsupported in thread mode; otherwise whatever the OS reports
    /// for the spawn.
    pub fn spawn_worker(&self) -> std::io::Result<u32> {
        let (spec, base) = self.spec.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "spawn_worker requires process-mode workers",
            )
        })?;
        let id = self.next_worker_id.fetch_add(1, Ordering::Relaxed);
        let child = spec.spawn(&Worker {
            client_id: id,
            ..base.clone()
        })?;
        if let Some(c) = &self.supervision {
            c.respawns.inc();
        }
        self.children.lock().unwrap().push(Some(child));
        Ok(id)
    }

    /// A live snapshot of the service telemetry (`None` once
    /// [`ServiceHandle::finish`] has consumed the server). Lets chaos
    /// tests watch a respawned worker get absorbed mid-run.
    pub fn stats(&self) -> Option<ServiceStats> {
        self.server.lock().unwrap().as_ref().map(EvalServer::stats)
    }

    /// Serve the module encoded in `payload` from the next batch on
    /// (see [`EvalServer::set_job`]: the module the farm already serves
    /// is a no-op, and each worker rebuilds its engine on its first
    /// shard of a new one).
    pub(crate) fn set_job(&self, payload: Vec<u8>) {
        if let Some(server) = self.server.lock().unwrap().as_mut() {
            server.set_job(payload);
        }
    }

    /// Clients connected and past their handshake (see
    /// [`EvalServer::live_clients`]); `0` once finished.
    pub(crate) fn live_clients(&self) -> usize {
        self.server
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, EvalServer::live_clients)
    }

    /// Take the service failure behind the most recent batch abort, if
    /// one was recorded ([`MissExecutor::execute`] returning `Err`).
    /// The tuner maps it into [`crate::TuneError::Service`] so the
    /// caller — notably the daemon — sees *which* transport-level
    /// failure killed the job, not just that the GA stopped.
    pub fn take_failure(&self) -> Option<Arc<EvaldError>> {
        self.failure.lock().unwrap().take()
    }

    /// Drain the client-produced stage artifacts that arrived on
    /// `Result` frames since the last call (the tuner folds them into
    /// its persistent [`ArtifactStore`] before saving — the
    /// single-writer rule). Call before [`ServiceHandle::finish`].
    pub fn take_artifacts(&self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        let mut guard = self.server.lock().unwrap();
        guard
            .as_mut()
            .map(EvalServer::take_merged_artifacts)
            .unwrap_or_default()
    }

    /// Sever connections, join every thread, drain (or kill) every
    /// worker process. Idempotent; shared by [`ServiceHandle::finish`]
    /// and `Drop`.
    ///
    /// Order matters: the acceptor stops first (no new connections can
    /// enter a dying server; dropping its listener unlinks the unix
    /// socket file), then the server shuts down (Shutdown frames let
    /// workers exit cleanly), then threads are joined and processes
    /// drained within the configured grace before being killed.
    fn teardown(&mut self) -> Option<ServiceStats> {
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.stop.store(true, Ordering::Relaxed);
            acceptor.thread.thread().unpark();
            let _ = acceptor.thread.join();
        }
        let stats = self.server.lock().unwrap().take().map(EvalServer::shutdown);
        for h in self.clients.drain(..) {
            let _ = h.join();
        }
        self.drain_children();
        stats
    }

    /// Wait up to the drain grace for worker processes to exit after
    /// their Shutdown frame; kill whatever is still running.
    fn drain_children(&self) {
        let mut children = self.children.lock().unwrap();
        if children.is_empty() {
            return;
        }
        let deadline = Instant::now() + Duration::from_millis(self.drain_grace_ms);
        loop {
            let mut still_running = 0;
            for child in children.iter_mut().flatten() {
                if matches!(child.try_wait(), Ok(None)) {
                    still_running += 1;
                }
            }
            if still_running == 0 {
                break;
            }
            if Instant::now() >= deadline {
                for child in children.iter_mut().flatten() {
                    if matches!(child.try_wait(), Ok(None)) {
                        let _ = child.kill();
                        self.workers_killed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Reap every child so no zombies outlive the service.
        for child in children.iter_mut().flatten() {
            let _ = child.wait();
        }
        children.clear();
    }

    /// Shut the service down: stop the clients, join their threads /
    /// drain their processes, and return the final telemetry. The
    /// record list is always empty (see [`MergeRecord`]).
    pub fn finish(mut self) -> (ServiceSummary, Vec<MergeRecord>) {
        let stats = self.teardown().expect("finish tears down once");
        (
            ServiceSummary {
                transport: self.transport,
                clients: self.launched,
                clients_lost: stats.clients_lost,
                shards: stats.shards,
                redispatched_shards: stats.redispatched_shards,
                duplicate_results: stats.duplicate_results,
                merged_artifacts: stats.merged_artifacts,
                clients_joined: stats.clients_joined,
                evicted_clients: stats.evicted_clients,
                heartbeat_misses: stats.heartbeat_misses,
                workers_killed: self.workers_killed.load(Ordering::Relaxed),
                cost_observations: stats.cost_observations,
            },
            Vec::new(),
        )
    }
}

/// A fitness record as farm clients once shipped home at batch end.
///
/// Nothing produces these any more: the server engine records every
/// result it receives itself, so [`ServiceHandle::finish`] always
/// returns an empty list of them. The type stays only because callers
/// that fold `finish`'s second element into a store still name its
/// fields; it goes once they stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeRecord {
    /// Stable content hash of the module.
    pub module_hash: u64,
    /// Stable one-byte compiler-profile tag.
    pub compiler: u8,
    /// Stable one-byte architecture tag.
    pub arch: u8,
    /// Stable 128-bit effect-config digest.
    pub effect_digest: u128,
    /// `f64::to_bits` of the fitness.
    pub fitness_bits: u64,
    /// Whether the compile failed.
    pub failed: bool,
    /// The representative flag vector.
    pub flags: Vec<bool>,
}

impl Drop for ServiceHandle {
    /// Error paths between launch and [`ServiceHandle::finish`] (e.g.
    /// [`crate::TuneError::Baseline`] from the engine build) must not
    /// leak blocked client/reader threads or the socket file.
    fn drop(&mut self) {
        self.teardown();
    }
}

/// `Arc<EvaldError>` adapted into the abort's source chain (std has no
/// blanket `Error for Arc<T>`): the same allocation is shared with
/// [`ServiceHandle::take_failure`], so the tuner's typed error and the
/// abort's `source()` report one and the same failure.
#[derive(Debug)]
pub(crate) struct SharedEvaldError(pub(crate) Arc<EvaldError>);

impl std::fmt::Display for SharedEvaldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for SharedEvaldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.0.source()
    }
}

impl MissExecutor for ServiceHandle {
    fn execute(&self, misses: &[Vec<bool>]) -> Result<Vec<MissResult>, EvalAbort> {
        let mut guard = self.server.lock().unwrap();
        let Some(server) = guard.as_mut() else {
            return Err(EvalAbort::new(
                "evaluation service already finished — no substrate left to evaluate on",
            ));
        };
        let evals = match server.evaluate(misses) {
            Ok(evals) => evals,
            // Losing *every* client mid-run leaves nothing to evaluate
            // on, and there is no degraded answer that keeps the GA
            // honest — so the *batch* aborts: the error unwinds through
            // `Ga::run_batched` to the tuner, which surfaces it as
            // `TuneError::Service`. The process hosting the service — a
            // CLI run or a multi-tenant daemon — keeps running and
            // decides whether to relaunch the farm. (Losing any proper
            // subset of clients is handled by re-dispatch and never
            // gets here.)
            Err(e) => {
                let message = format!(
                    "evaluation service failed with work outstanding: {e}{}",
                    server
                        .last_loss()
                        .map(|l| format!(" (last client loss: {l})"))
                        .unwrap_or_default()
                );
                let cause = Arc::new(e);
                *self.failure.lock().unwrap() = Some(Arc::clone(&cause));
                return Err(EvalAbort::with_source(message, SharedEvaldError(cause)));
            }
        };
        Ok(evals
            .into_iter()
            .map(|e| MissResult {
                fitness: e.fitness(),
                failed: e.failed,
                wall_seconds: e.wall_seconds(),
            })
            .collect())
    }
}

/// A [`MissExecutor`] that can also report the typed service failure
/// behind its most recent batch abort, and hand back the stage
/// artifacts its workers produced.
///
/// [`Tuner::tune_with_executor`](crate::Tuner::tune_with_executor)
/// accepts any implementor, so an embedder that multiplexes several
/// tuning runs onto shared evaluation substrate — the `bintuner daemon`
/// — plugs its farm proxy into the unchanged tuning pipeline and still
/// gets a fully chained [`crate::TuneError::Service`] when the
/// substrate dies, and its workers' artifacts persisted by the run.
pub trait ServiceExecutor: MissExecutor {
    /// Take the failure recorded by the most recent aborted
    /// [`MissExecutor::execute`] call, if any.
    fn take_failure(&self) -> Option<Arc<EvaldError>>;

    /// Drain the stage artifacts the executor's workers shipped back
    /// since the last call. The tuner folds them into its persistent
    /// [`ArtifactStore`] before saving it.
    fn take_artifacts(&self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>);
}

impl ServiceExecutor for ServiceHandle {
    fn take_failure(&self) -> Option<Arc<EvaldError>> {
        ServiceHandle::take_failure(self)
    }

    fn take_artifacts(&self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        ServiceHandle::take_artifacts(self)
    }
}

/// Queue wire-shipped stage artifacts into a persistent store — the
/// inverse of a worker's per-shard drain. Inserts dedup against the
/// store's live and pending entries, so folding artifacts the store
/// already holds is a no-op.
pub(crate) fn fold_artifacts(
    store: &mut ArtifactStore,
    (ast, lower): (Vec<WireAstArtifact>, Vec<WireLowerArtifact>),
) {
    for a in ast {
        let key = AstArtifactKey {
            body_hash: a.body_hash,
            compiler: a.compiler,
            ast_digest: a.ast_digest,
        };
        store.insert_ast(key, f64::from_bits(a.cost_bits), a.blob);
    }
    for a in lower {
        let key = LowerArtifactKey {
            body_hash: a.body_hash,
            compiler: a.compiler,
            arch: a.arch,
            ast_digest: a.ast_digest,
            lower_digest: a.lower_digest,
        };
        store.insert_lower(key, f64::from_bits(a.cost_bits), a.blob);
    }
}
