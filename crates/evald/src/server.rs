//! The server side: dispatch loop, result assembly, artifact sink.
//!
//! [`EvalServer`] owns one sender per client connection plus a single
//! event queue fed by per-connection reader threads. One call to
//! [`EvalServer::evaluate`] is one batch:
//!
//! 1. the batch is chunked into shards ([`crate::Scheduler`]),
//! 2. every live client is primed with a shard and re-fed as results
//!    arrive; a shard has one holder at a time,
//! 3. results are committed at their shard's batch offset, and the stage
//!    artifacts each `Result` frame carries accumulate in the server
//!    (the *single writer* of the embedder's persistent store: clients
//!    only ever send),
//! 4. the batch ends once every shard has a result *and* no client still
//!    holds a dispatch, so nothing a batch dispatched can land in a
//!    later batch — or, on a farm that serves job after job, in another
//!    job.
//!
//! Each client builds its evaluation engine from the embedder's job
//! description ([`EvalServer::set_job`]). Jobs are numbered, and the
//! server sends a client the current job right before that client's
//! first `Work` of it, so one farm serves any number of jobs in turn.
//!
//! A dead client (closed connection, failed send, undecodable frame,
//! protocol violation such as a result of the wrong length) is dropped
//! from the rotation, its outstanding shard is re-queued, and any frame
//! it still had in flight is ignored; the batch completes as long as one
//! client survives.
//!
//! A *hung* client — one that neither answers nor disconnects — is
//! handled by the liveness plane ([`crate::LivenessConfig`]): the event
//! loop waits in bounded ticks, probes idle clients with
//! [`crate::wire::Frame::Ping`] heartbeats, and holds every outstanding
//! dispatch to a wall-clock deadline scaled by the dispatch times the
//! server itself observed (the [`CostModel`]: `Work` sent to `Result`
//! received, per genome, per client). A client that misses its
//! heartbeat budget or blows a dispatch deadline is *evicted* exactly
//! like a dead client. Eviction only
//! changes scheduling; because evaluation is a pure function of the
//! genome, results stay bit-identical to an unfaulted run.

use crate::scheduler::{shard_size, CostModel, Scheduler};
use crate::transport::{Duplex, FrameReceiver, FrameSender};
use crate::wire::{
    decode_frame, encode_frame, Frame, WireAstArtifact, WireEval, WireLowerArtifact, WireSpan,
};
use crate::{EvaldError, LivenessConfig};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling on a cost-derived dispatch deadline. The estimate behind it
/// is an EWMA of the dispatch times the server observed, scaled by a
/// configured multiplier, so a pathologically slow dispatch (or an
/// absurd multiplier) must neither park a shard for ages nor overflow
/// the `Duration` conversion.
const MAX_DISPATCH_DEADLINE: Duration = Duration::from_secs(3_600);

/// Cumulative service telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Batches evaluated.
    pub batches: usize,
    /// Shards dispatched (first assignments).
    pub shards: usize,
    /// Shards handed out again after the client holding them was lost
    /// or evicted.
    pub redispatched_shards: usize,
    /// Individual evaluations discarded because their shard already had
    /// a result. A shard has one holder, so only a client answering a
    /// shard it was not handed produces these.
    pub duplicate_results: usize,
    /// Client-produced stage artifacts received on `Result` frames.
    pub merged_artifacts: usize,
    /// Clients lost over the service's lifetime.
    pub clients_lost: usize,
    /// Clients that joined *after* launch (reconnecting or respawned
    /// worker processes absorbed mid-run via [`ClientInjector`]).
    pub clients_joined: usize,
    /// Dispatch times (`Work` sent → `Result` received) the server
    /// folded into its cost model, over every job.
    pub cost_observations: u64,
    /// Heartbeat probes that were still unanswered when the next probe
    /// came due (the liveness plane's early-warning signal).
    pub heartbeat_misses: u64,
    /// Clients the liveness plane condemned — too many missed
    /// heartbeats or a blown dispatch deadline. A subset of
    /// [`ServiceStats::clients_lost`].
    pub evicted_clients: usize,
}

/// The embedder's telemetry handles for the dispatch server, resolved
/// once against a `btel::Registry` and installed via
/// [`EvalServer::set_telemetry`]. Absent (the default), the server
/// records no spans or metrics and sends span id `0` on every `Work`
/// frame — bit-identical to pre-telemetry behavior.
pub struct ServerTelemetry {
    /// Records shard-dispatch spans and stitches in worker spans.
    pub tracer: btel::Tracer,
    /// Dispatch latency: `Work` sent → first `Result` received.
    pub dispatch_seconds: Arc<btel::Histogram>,
    /// Shards handed out again after their client was lost or evicted.
    pub redispatched: Arc<btel::Counter>,
    /// Clients admitted after launch (reconnects).
    pub clients_joined: Arc<btel::Counter>,
    /// Clients lost over the service's lifetime.
    pub clients_lost: Arc<btel::Counter>,
    /// Heartbeat probes unanswered when the next probe fired.
    pub heartbeat_misses: Arc<btel::Counter>,
    /// Liveness evictions (missed heartbeats or blown dispatch
    /// deadlines).
    pub evictions: Arc<btel::Counter>,
}

enum Event {
    Frame(u32, Frame),
    Gone(u32, EvaldError),
    /// A connection injected after launch (see [`ClientInjector`]): the
    /// server must complete the Hello handshake before handing it work.
    Joined(u32, Box<dyn FrameSender>),
}

/// Spawn the per-connection reader thread: decode frames off `rx` and
/// forward them as events until the connection or the server goes away.
fn spawn_reader(
    id: u32,
    mut frame_rx: Box<dyn FrameReceiver>,
    tx: mpsc::Sender<Event>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        match frame_rx.recv_frame() {
            Ok(bytes) => match decode_frame(&bytes) {
                Ok((frame, _)) => {
                    if tx.send(Event::Frame(id, frame)).is_err() {
                        return; // server gone
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event::Gone(id, e));
                    return;
                }
            },
            Err(e) => {
                let _ = tx.send(Event::Gone(id, e));
                return;
            }
        }
    })
}

/// A handle for feeding new client connections into a running
/// [`EvalServer`] — the reconnect path of the process farm: an acceptor
/// thread keeps `accept()`ing on the farm's listener and injects every
/// late connection here. The server handshakes the newcomer (Hello,
/// width check) and folds it into the dispatch rotation; like every
/// client, it receives the current job description before its first
/// `Work`. A client that died earlier simply comes back under a fresh
/// id.
///
/// Cloneable and `Send`: the acceptor owns a clone while the server
/// keeps running.
#[derive(Clone)]
pub struct ClientInjector {
    events: mpsc::Sender<Event>,
    next_id: Arc<AtomicU32>,
}

impl ClientInjector {
    /// Hand a freshly accepted connection to the server, returning the
    /// client id it will serve under. The injection is ordered before
    /// anything the connection's reader produces, so the newcomer's
    /// `Hello` always finds the server expecting it.
    pub fn inject(&self, duplex: Duplex) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Joined must enter the queue before the reader's first frame;
        // sending it *before* the reader thread exists guarantees that.
        // (A send after server teardown is simply dropped — the
        // connection is severed when `duplex` goes out of scope.)
        let _ = self.events.send(Event::Joined(id, duplex.tx));
        // The reader is not joined at teardown (the server never learns
        // its handle); it exits on its own once the sender half is
        // closed and the severed connection surfaces as Disconnected.
        let _ = spawn_reader(id, duplex.rx, self.events.clone());
        id
    }
}

/// A client's one outstanding `Work` frame (a client holds at most one),
/// cleared by the client's `Result` or by its loss.
struct Dispatch {
    /// The dispatch-span id the frame carried; `0` without tracing.
    span: u64,
    /// When the frame went out.
    sent: Instant,
    /// Past this instant the client is evicted; `None` when dispatch
    /// deadlines are off.
    deadline: Option<Instant>,
}

/// The dispatch server (see module docs).
pub struct EvalServer {
    senders: Vec<Option<Box<dyn crate::transport::FrameSender>>>,
    events: mpsc::Receiver<Event>,
    /// Kept for [`EvalServer::injector`] clones; the server itself never
    /// sends on it.
    events_tx: mpsc::Sender<Event>,
    /// Next id for injected clients (initial clients take 0..n).
    next_client_id: Arc<AtomicU32>,
    readers: Vec<JoinHandle<()>>,
    /// Per-client dispatch times this server observed; dispatch
    /// deadlines scale with them.
    cost: CostModel,
    /// Chromosome width every client must announce.
    expect_n_flags: u16,
    /// The embedder's current job: its number (from 1) and description.
    job: Option<(u64, Vec<u8>)>,
    /// The last job number sent to each client.
    job_sent: HashMap<u32, u64>,
    /// Injected clients that have not completed their Hello yet — not
    /// eligible for work until they do.
    pending_hello: HashSet<u32>,
    next_shard_id: u64,
    stats: ServiceStats,
    merged_ast: Vec<WireAstArtifact>,
    merged_lower: Vec<WireLowerArtifact>,
    /// Why the most recently lost client went away (diagnostics).
    last_loss: Option<String>,
    /// Clients with no useful work at last dispatch — re-poked when a
    /// client death re-queues shards.
    idle: HashSet<u32>,
    /// Telemetry handles; `None` (the default) is the Off-mode purity
    /// contract: no telemetry clocks, no spans, no metric writes. (The
    /// liveness plane keeps its own clock regardless — it steers
    /// scheduling, which never changes results, not telemetry.)
    tel: Option<ServerTelemetry>,
    /// Heartbeat cadence and dispatch-deadline policy (see
    /// [`LivenessConfig`]); installed via [`EvalServer::set_liveness`].
    liveness: LivenessConfig,
    /// Pings sent to a client since its last frame (any frame counts as
    /// proof of life). Reset to zero on receive; eviction when it
    /// exceeds [`LivenessConfig::max_missed_heartbeats`].
    unanswered_pings: HashMap<u32, u32>,
    /// Each client's outstanding dispatch. Blowing its deadline is an
    /// eviction; its send time times the dispatch for the cost model
    /// when the `Result` arrives, and with its span closes the dispatch
    /// span (the one its worker parented stage spans under).
    outstanding: HashMap<u32, Dispatch>,
    /// When the last round of heartbeat probes went out.
    last_ping: Option<Instant>,
    /// Monotonically increasing ping nonce (diagnostics only — any
    /// inbound frame proves liveness, not just the matching Pong).
    next_nonce: u64,
}

impl EvalServer {
    /// Build a server over established connections and complete the
    /// handshake: every client must send [`Frame::Hello`] with a
    /// matching chromosome width. Clients that fail the handshake are
    /// dropped (counted in [`ServiceStats::clients_lost`]).
    ///
    /// # Errors
    ///
    /// [`EvaldError::NoClients`] when no client survives the handshake.
    pub fn new(connections: Vec<Duplex>, expect_n_flags: u16) -> Result<EvalServer, EvaldError> {
        let (tx, rx) = mpsc::channel();
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (id, duplex) in connections.into_iter().enumerate() {
            senders.push(Some(duplex.tx));
            readers.push(spawn_reader(id as u32, duplex.rx, tx.clone()));
        }
        let next_client_id = Arc::new(AtomicU32::new(senders.len() as u32));
        let mut server = EvalServer {
            senders,
            events: rx,
            events_tx: tx,
            next_client_id,
            readers,
            cost: CostModel::default(),
            expect_n_flags,
            job: None,
            job_sent: HashMap::new(),
            pending_hello: HashSet::new(),
            next_shard_id: 0,
            stats: ServiceStats::default(),
            merged_ast: Vec::new(),
            merged_lower: Vec::new(),
            last_loss: None,
            idle: HashSet::new(),
            tel: None,
            liveness: LivenessConfig::default(),
            unanswered_pings: HashMap::new(),
            outstanding: HashMap::new(),
            last_ping: None,
            next_nonce: 0,
        };
        server.handshake()?;
        Ok(server)
    }

    /// Install telemetry handles. Dispatches from here on carry real
    /// span ids on their `Work` frames, dispatch latency lands in the
    /// histogram, and worker-recorded spans are stitched into the
    /// tracer as results arrive.
    pub fn set_telemetry(&mut self, tel: ServerTelemetry) {
        self.tel = Some(tel);
    }

    /// Install the liveness policy: heartbeat cadence, miss budget, and
    /// dispatch-deadline scaling. The default ([`LivenessConfig`]) is
    /// deliberately generous — tune it down only in chaos tests.
    pub fn set_liveness(&mut self, liveness: LivenessConfig) {
        self.liveness = liveness;
    }

    /// A handle for injecting client connections accepted *after*
    /// launch (the farm's reconnect path).
    pub fn injector(&self) -> ClientInjector {
        ClientInjector {
            events: self.events_tx.clone(),
            next_id: Arc::clone(&self.next_client_id),
        }
    }

    /// Install the embedder's job description. A payload byte-equal to
    /// the current one changes nothing; any other becomes the next job,
    /// under the next job number, and starts the cost model afresh (one
    /// job's per-genome cost says nothing about another's). No frame
    /// goes out here: each client receives the current job right before
    /// its first `Work` of it, so a worker always builds its engine
    /// first — a client injected mid-farm included.
    pub fn set_job(&mut self, payload: Vec<u8>) {
        if self
            .job
            .as_ref()
            .is_some_and(|(_, current)| *current == payload)
        {
            return;
        }
        let number = self.job.as_ref().map_or(1, |(n, _)| n + 1);
        self.job = Some((number, payload));
        self.cost = CostModel::default();
    }

    /// Clients connected and past their handshake. A connection that
    /// closed since the last batch still counts until the next batch
    /// drains its loss.
    pub fn live_clients(&self) -> usize {
        self.ready_ids().len()
    }

    fn alive(&self) -> usize {
        self.senders.iter().filter(|s| s.is_some()).count()
    }

    fn connected(&self, client: u32) -> bool {
        self.senders
            .get(client as usize)
            .is_some_and(Option::is_some)
    }

    fn alive_ids(&self) -> Vec<u32> {
        self.senders
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
            .collect()
    }

    /// Clients eligible for work: connected *and* past their handshake.
    fn ready_ids(&self) -> Vec<u32> {
        self.alive_ids()
            .into_iter()
            .filter(|c| !self.pending_hello.contains(c))
            .collect()
    }

    /// Grow the sender table to cover an injected client id.
    fn ensure_slot(&mut self, client: u32) {
        let need = client as usize + 1;
        if self.senders.len() < need {
            self.senders.resize_with(need, || None);
        }
    }

    /// Register an injected connection: it owes us a Hello before it can
    /// take work.
    fn register_joined(&mut self, client: u32, sender: Box<dyn FrameSender>) {
        self.ensure_slot(client);
        self.senders[client as usize] = Some(sender);
        self.pending_hello.insert(client);
    }

    /// Handle a Hello from an injected client: width-check it and admit
    /// it to the rotation. Returns `false` when the Hello was *not* a
    /// valid admission (repeated Hello from an established client, or
    /// width mismatch) — the caller treats that as a protocol violation
    /// / lost client.
    fn admit_joined(&mut self, client: u32, n_flags: u16) -> bool {
        if !self.pending_hello.remove(&client) {
            return false;
        }
        if n_flags != self.expect_n_flags {
            self.drop_client(client);
            return false;
        }
        self.stats.clients_joined += 1;
        if let Some(t) = &self.tel {
            t.clients_joined.inc();
        }
        true
    }

    fn drop_client(&mut self, client: u32) {
        self.ensure_slot(client);
        if let Some(mut sender) = self.senders[client as usize].take() {
            // Sever the connection: a still-alive client (protocol
            // violation, handshake mismatch) and our own reader thread
            // must both observe EOF instead of blocking forever.
            sender.close();
            self.stats.clients_lost += 1;
            if let Some(t) = &self.tel {
                t.clients_lost.inc();
            }
        }
        self.pending_hello.remove(&client);
        self.idle.remove(&client);
        self.unanswered_pings.remove(&client);
        self.outstanding.remove(&client);
        self.job_sent.remove(&client);
        self.cost.forget(client);
    }

    /// Drop `client` mid-batch: re-queue its shards and re-poke the idle
    /// clients that can now take them.
    fn lose_client(&mut self, sched: &mut Scheduler, client: u32) {
        self.drop_client(client);
        sched.client_dead(client);
        self.wake_idle(sched);
    }

    /// How long one event wait may block before the liveness plane gets
    /// a turn. Derived from the heartbeat cadence; bounded so even a
    /// heartbeat-free configuration keeps checking dispatch deadlines.
    fn liveness_tick(&self) -> Duration {
        let ms = if self.liveness.heartbeat_interval_ms == 0 {
            500
        } else {
            (self.liveness.heartbeat_interval_ms / 2).clamp(25, 500)
        };
        Duration::from_millis(ms)
    }

    /// The wall-clock budget for a dispatch of `genomes` genomes: the
    /// observed seconds per genome scaled by the configured multiplier
    /// and capped at [`MAX_DISPATCH_DEADLINE`], floored generously
    /// while too few dispatches have been observed. `None` when
    /// dispatch deadlines are off.
    fn dispatch_budget(&self, genomes: usize) -> Option<Duration> {
        if self.liveness.min_dispatch_deadline_ms == 0 {
            return None; // dispatch deadlines disabled
        }
        let floor = Duration::from_millis(self.liveness.min_dispatch_deadline_ms);
        let budget = match self.cost.observed_secs_per_genome() {
            Some(secs) if secs > 0.0 => {
                let scaled = secs * genomes as f64 * self.liveness.deadline_multiplier;
                let capped = Duration::try_from_secs_f64(scaled)
                    .map_or(MAX_DISPATCH_DEADLINE, |d| d.min(MAX_DISPATCH_DEADLINE));
                floor.max(capped)
            }
            _ => floor,
        };
        Some(budget)
    }

    /// One turn of the liveness plane, run whenever an event wait times
    /// out: evict dispatches past their deadline, fire due heartbeat
    /// probes, and condemn clients whose miss budget is spent. Returns
    /// the condemned client ids; the caller evicts them through the
    /// same path as a dead client.
    fn liveness_sweep(&mut self) -> Vec<u32> {
        let now = Instant::now();
        let mut condemned: Vec<u32> = self
            .outstanding
            .iter()
            .filter(|(_, d)| d.deadline.is_some_and(|deadline| now >= deadline))
            .map(|(&c, _)| c)
            .collect();
        let due = self.liveness.heartbeat_interval_ms > 0
            && !self.last_ping.is_some_and(|t| {
                now.duration_since(t) < Duration::from_millis(self.liveness.heartbeat_interval_ms)
            });
        if due {
            self.last_ping = Some(now);
            for c in self.ready_ids() {
                if self
                    .outstanding
                    .get(&c)
                    .is_some_and(|d| d.deadline.is_some())
                {
                    // Busy on a shard: the client loop cannot answer a
                    // probe mid-evaluation, so the dispatch deadline —
                    // not the heartbeat — governs it.
                    continue;
                }
                let missed = self.unanswered_pings.get(&c).copied().unwrap_or(0);
                if missed > 0 {
                    self.stats.heartbeat_misses += 1;
                    if let Some(t) = &self.tel {
                        t.heartbeat_misses.inc();
                    }
                }
                if missed >= self.liveness.max_missed_heartbeats {
                    condemned.push(c);
                    continue;
                }
                self.unanswered_pings.insert(c, missed + 1);
                let nonce = self.next_nonce;
                self.next_nonce += 1;
                self.send_to(c, &Frame::Ping { nonce });
            }
        }
        condemned.sort_unstable();
        condemned.dedup();
        condemned
    }

    /// Book-keeping shared by every liveness eviction (the severance
    /// itself goes through [`EvalServer::drop_client`] as usual).
    fn note_eviction(&mut self, client: u32) {
        self.last_loss = Some(format!(
            "client {client} evicted: missed heartbeats or blew its dispatch deadline"
        ));
        self.stats.evicted_clients += 1;
        if let Some(t) = &self.tel {
            t.evictions.inc();
        }
    }

    /// Send a frame to `client`; on failure the client is dropped and
    /// `false` returned.
    fn send_to(&mut self, client: u32, frame: &Frame) -> bool {
        let Some(sender) = self
            .senders
            .get_mut(client as usize)
            .and_then(Option::as_mut)
        else {
            return false;
        };
        if sender.send_frame(&encode_frame(frame)).is_err() {
            self.drop_client(client);
            return false;
        }
        true
    }

    fn handshake(&mut self) -> Result<(), EvaldError> {
        let mut pending: HashSet<u32> = self.alive_ids().into_iter().collect();
        while !pending.is_empty() {
            // deadline: the launch handshake is bounded by the embedder
            // (thread clients Hello before their first recv; process
            // farms gate admission behind their own accept deadline).
            match self.events.recv() {
                Ok(Event::Frame(c, Frame::Hello { n_flags })) => {
                    if self.pending_hello.contains(&c) {
                        // An injected client racing the launch
                        // handshake; admit it on the side.
                        self.admit_joined(c, n_flags);
                    } else {
                        if n_flags != self.expect_n_flags {
                            self.drop_client(c);
                        }
                        pending.remove(&c);
                    }
                }
                Ok(Event::Frame(c, _)) => {
                    // Anything before Hello is a protocol violation.
                    self.drop_client(c);
                    pending.remove(&c);
                }
                Ok(Event::Gone(c, e)) => {
                    self.last_loss = Some(e.to_string());
                    self.drop_client(c);
                    pending.remove(&c);
                }
                Ok(Event::Joined(c, sender)) => self.register_joined(c, sender),
                Err(_) => break, // all readers gone
            }
        }
        if self.alive() == 0 {
            return Err(EvaldError::NoClients);
        }
        Ok(())
    }

    /// Time one answered dispatch — `Work` sent at `sent`, `Result`
    /// received now — and fold it into the cost model.
    fn observe_cost(&mut self, client: u32, genomes: usize, sent: Instant) {
        let before = self.cost.observations();
        self.cost
            .observe(client, genomes, sent.elapsed().as_secs_f64());
        self.stats.cost_observations += self.cost.observations() - before;
    }

    /// Send `client` the current job unless it already has it. Returns
    /// `false` when the send failed and the client was dropped.
    fn send_job(&mut self, client: u32) -> bool {
        let Some((job, payload)) = &self.job else {
            return true;
        };
        if self.job_sent.get(&client) == Some(job) {
            return true;
        }
        let job = *job;
        let frame = Frame::Job {
            job,
            payload: payload.clone(),
        };
        if !self.send_to(client, &frame) {
            return false;
        }
        self.job_sent.insert(client, job);
        true
    }

    /// Give `client` its next shard if the scheduler has one; otherwise
    /// mark it idle.
    fn dispatch_next(&mut self, sched: &mut Scheduler, client: u32) {
        if !self.connected(client) || self.pending_hello.contains(&client) {
            return;
        }
        let Some((shard, genomes)) = sched.next_for(client) else {
            self.idle.insert(client);
            return;
        };
        let span = match &self.tel {
            Some(t) if t.tracer.is_enabled() => t.tracer.alloc_id(),
            _ => 0,
        };
        let budget = self.dispatch_budget(genomes.len());
        let job = self.job.as_ref().map_or(0, |(n, _)| *n);
        let sent = Instant::now();
        // The worker builds its engine from the job description, so the
        // Job frame goes first whenever the client lacks the current one.
        if self.send_job(client)
            && self.send_to(
                client,
                &Frame::Work {
                    shard,
                    span,
                    job,
                    genomes,
                },
            )
        {
            self.idle.remove(&client);
            // The dispatch deadline takes over liveness duty from the
            // heartbeat until the shard's Result comes back.
            self.unanswered_pings.insert(client, 0);
            let deadline = budget.map(|b| sent + b);
            self.outstanding.insert(
                client,
                Dispatch {
                    span,
                    sent,
                    deadline,
                },
            );
        } else {
            // Send failed: the client was dropped mid-dispatch. Release
            // its shard; the reader's Gone event (a closed connection
            // always produces one) re-pokes idle clients.
            sched.client_dead(client);
        }
    }

    /// Close out the dispatch span of the dispatch that produced a result
    /// and stitch the worker's spans into the trace (no-op without
    /// telemetry; `dispatch` is `None` for a result that answers no
    /// outstanding dispatch, and its span is `0` when the Work frame
    /// went out untraced).
    fn fold_result_telemetry(&self, client: u32, dispatch: Option<Dispatch>, spans: Vec<WireSpan>) {
        let Some(t) = &self.tel else { return };
        if let Some(d) = dispatch.filter(|d| d.span != 0) {
            t.tracer.record_with_id(d.span, "dispatch", 0, d.sent);
            t.dispatch_seconds
                .observe_seconds(d.sent.elapsed().as_secs_f64());
        }
        t.tracer.import(spans.into_iter().map(|s| btel::SpanRecord {
            id: s.id,
            parent: s.parent,
            name: s.name,
            start_us: s.start_us,
            dur_us: s.dur_us,
            client,
        }));
    }

    /// Re-poke idle clients (after a death re-queued shards).
    fn wake_idle(&mut self, sched: &mut Scheduler) {
        let idle: Vec<u32> = self.idle.iter().copied().collect();
        for c in idle {
            self.dispatch_next(sched, c);
        }
    }

    /// Evaluate one batch of genomes across the client farm, returning
    /// one [`WireEval`] per genome in input order. Returns once every
    /// shard has a result and no client holds a dispatch: each shard's
    /// one holder is awaited, or evicted by its dispatch deadline and
    /// the shard handed out again, so each batch's results and
    /// artifacts are counted before it returns and none spill into a
    /// later batch.
    ///
    /// # Errors
    ///
    /// [`EvaldError::NoClients`] when every client is dead with shards
    /// still outstanding.
    pub fn evaluate(&mut self, genomes: &[Vec<bool>]) -> Result<Vec<WireEval>, EvaldError> {
        if genomes.is_empty() {
            return Ok(Vec::new());
        }
        if self.alive() == 0 {
            return Err(EvaldError::NoClients);
        }
        let size = shard_size(genomes.len(), self.alive());
        let mut sched = Scheduler::new(self.next_shard_id, genomes, size);
        self.next_shard_id += sched.shard_count() as u64;
        self.stats.batches += 1;
        self.stats.shards += sched.shard_count();
        let mut out: Vec<Option<WireEval>> = vec![None; genomes.len()];

        self.idle.clear();
        for c in self.ready_ids() {
            self.dispatch_next(&mut sched, c);
        }
        while !sched.all_done() || !self.outstanding.is_empty() {
            if self.alive() == 0 {
                return Err(EvaldError::NoClients);
            }
            // deadline: bounded wait — every timeout tick runs the
            // liveness sweep, so a hung client is evicted (shards
            // requeued) instead of stalling the batch forever.
            let event = match self.events.recv_timeout(self.liveness_tick()) {
                Ok(event) => event,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for c in self.liveness_sweep() {
                        self.note_eviction(c);
                        self.lose_client(&mut sched, c);
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(EvaldError::NoClients),
            };
            if let Event::Frame(c, _) = &event {
                if !self.connected(*c) {
                    // A dropped client's frame still in flight: its shard
                    // was re-queued when it was dropped.
                    continue;
                }
                // Any frame is proof of life.
                self.unanswered_pings.insert(*c, 0);
            }
            match event {
                Event::Frame(
                    c,
                    Frame::Result {
                        shard,
                        evals,
                        spans,
                        ast_artifacts,
                        lower_artifacts,
                    },
                ) => {
                    if let Some(want) = sched.shard_len(shard).filter(|&n| n != evals.len()) {
                        // A broken worker build: drop it like any other
                        // protocol violation and re-queue its shard.
                        self.last_loss = Some(format!(
                            "client {c} answered shard {shard} with {} results, not {want}",
                            evals.len()
                        ));
                        self.lose_client(&mut sched, c);
                        continue;
                    }
                    let dispatch = self.outstanding.remove(&c);
                    if let Some(d) = &dispatch {
                        self.observe_cost(c, evals.len(), d.sent);
                    }
                    self.stats.merged_artifacts += ast_artifacts.len() + lower_artifacts.len();
                    self.merged_ast.extend(ast_artifacts);
                    self.merged_lower.extend(lower_artifacts);
                    self.fold_result_telemetry(c, dispatch, spans);
                    match sched.complete(shard) {
                        Some(start) => {
                            for (k, e) in evals.into_iter().enumerate() {
                                out[start + k] = Some(e);
                            }
                        }
                        None => self.stats.duplicate_results += evals.len(),
                    }
                    self.dispatch_next(&mut sched, c);
                }
                Event::Frame(c, Frame::Hello { n_flags }) => {
                    if self.admit_joined(c, n_flags) {
                        // A reconnecting worker joins the running batch
                        // and pulls from the same queue.
                        self.dispatch_next(&mut sched, c);
                    } else {
                        // Repeated Hello from an established client:
                        // protocol violation.
                        self.lose_client(&mut sched, c);
                    }
                }
                Event::Frame(_, Frame::Pong { .. }) => {
                    // Heartbeat answer: the proof-of-life reset above
                    // already did the work.
                }
                Event::Frame(c, _) => {
                    // Work/Shutdown/Job/Ping from a client: protocol
                    // violation — drop it.
                    self.lose_client(&mut sched, c);
                }
                Event::Gone(c, e) => {
                    // A client the server dropped keeps the reason why.
                    if self.connected(c) {
                        self.last_loss = Some(e.to_string());
                    }
                    self.lose_client(&mut sched, c);
                }
                Event::Joined(c, sender) => self.register_joined(c, sender),
            }
        }

        self.stats.redispatched_shards += sched.redispatched;
        if let Some(t) = &self.tel {
            t.redispatched.add(sched.redispatched as u64);
        }
        Ok(out
            .into_iter()
            .map(|e| e.expect("every shard completed"))
            .collect())
    }

    /// Drain the accumulated client-produced stage artifacts (the
    /// embedder folds them into its artifact store — the single write
    /// path).
    pub fn take_merged_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        (
            std::mem::take(&mut self.merged_ast),
            std::mem::take(&mut self.merged_lower),
        )
    }

    /// A snapshot of the service telemetry.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Why the most recently lost client disconnected, if any did
    /// (clean shard-drop deaths read as "peer closed the connection").
    pub fn last_loss(&self) -> Option<&str> {
        self.last_loss.as_deref()
    }

    /// Shut the service down: tell every live client to exit, then join
    /// the reader threads. Returns the final telemetry.
    pub fn shutdown(mut self) -> ServiceStats {
        self.teardown();
        self.stats
    }

    /// Idempotent teardown shared by [`EvalServer::shutdown`] and `Drop`.
    fn teardown(&mut self) {
        for c in self.alive_ids() {
            self.send_to(c, &Frame::Shutdown);
        }
        // Sever every connection (queued frames drain first): channel
        // transports close when the sender drops, stream transports need
        // the explicit shutdown so clients and readers see EOF even if a
        // client never processes the Shutdown frame.
        for sender in self.senders.iter_mut().flatten() {
            sender.close();
        }
        self.senders.clear();
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for EvalServer {
    /// A server dropped without [`EvalServer::shutdown`] — an embedder
    /// error path between launch and teardown — must still sever every
    /// connection and join its readers: on stream transports, merely
    /// dropping the write halves would leave clients *and* readers
    /// blocked forever (each holds its own clone of the stream).
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::tests::run_client;
    use crate::client::{Client, ClientOptions, ShardWorker};
    use crate::scheduler::MIN_COST_OBSERVATIONS;
    use crate::transport::{channel_duplex, Listener};
    use crate::{FaultKind, TransportKind};

    /// Toy worker: fitness = popcount; remembers the genomes it has
    /// seen; ships one stage-1 artifact per shard for sink coverage.
    struct Popcount {
        seen: std::collections::BTreeSet<Vec<bool>>,
        pending: Vec<WireAstArtifact>,
    }

    impl Popcount {
        fn new() -> Popcount {
            Popcount {
                seen: Default::default(),
                pending: Vec::new(),
            }
        }
    }

    impl ShardWorker for Popcount {
        fn evaluate(&mut self, genomes: &[Vec<bool>], _span: u64) -> Vec<WireEval> {
            let evals = genomes
                .iter()
                .map(|g| {
                    self.seen.insert(g.clone());
                    WireEval {
                        fitness_bits: (g.iter().filter(|&&b| b).count() as f64).to_bits(),
                        failed: false,
                        wall_seconds_bits: 0,
                    }
                })
                .collect();
            self.pending.push(WireAstArtifact {
                body_hash: 1,
                compiler: 0,
                ast_digest: self.seen.len() as u128,
                cost_bits: 0,
                blob: vec![],
            });
            evals
        }

        fn drain_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
            (std::mem::take(&mut self.pending), Vec::new())
        }
    }

    fn launch(n_clients: usize, fail: Option<(usize, usize)>) -> (EvalServer, Vec<JoinHandle<()>>) {
        launch_faulty(n_clients, fail, FaultKind::Crash)
    }

    fn launch_faulty(
        n_clients: usize,
        fail: Option<(usize, usize)>,
        fault_kind: FaultKind,
    ) -> (EvalServer, Vec<JoinHandle<()>>) {
        let workers = (0..n_clients)
            .map(|_| Box::new(Popcount::new()) as Box<dyn ShardWorker + Send>)
            .collect();
        launch_workers(workers, fail, fault_kind)
    }

    /// Serve each worker as one channel client, ids in order; `fail`
    /// faults client `.0` after `.1` shards.
    fn launch_workers(
        workers: Vec<Box<dyn ShardWorker + Send>>,
        fail: Option<(usize, usize)>,
        fault_kind: FaultKind,
    ) -> (EvalServer, Vec<JoinHandle<()>>) {
        let mut server_side = Vec::new();
        let mut handles = Vec::new();
        for (i, mut w) in workers.into_iter().enumerate() {
            let (s, c) = channel_duplex();
            server_side.push(s);
            let opts = ClientOptions {
                n_flags: 4,
                fail_after_shards: fail.and_then(|(who, after)| (who == i).then_some(after)),
                fault_kind,
            };
            handles.push(std::thread::spawn(move || {
                let _ = run_client(w.as_mut(), c, &opts);
            }));
        }
        let server = EvalServer::new(server_side, 4).unwrap();
        (server, handles)
    }

    fn batch(n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|i| (0..4).map(|b| (i >> b) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn batch_results_are_ordered_and_correct() {
        let (mut server, handles) = launch(3, None);
        let genomes = batch(16);
        let evals = server.evaluate(&genomes).unwrap();
        assert_eq!(evals.len(), 16);
        for (g, e) in genomes.iter().zip(&evals) {
            assert_eq!(e.fitness(), g.iter().filter(|&&b| b).count() as f64);
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 1);
        assert!(stats.shards >= 3);
        // One holder per shard: each shard's one Result frame carried
        // its artifact, and nothing came back twice.
        let (ast, lower) = server.take_merged_artifacts();
        assert_eq!(ast.len(), stats.shards);
        assert_eq!(stats.duplicate_results, 0);
        assert_eq!(stats.merged_artifacts, ast.len());
        assert!(lower.is_empty());
        let final_stats = server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(final_stats.clients_lost, 0);
    }

    #[test]
    fn empty_batch_is_trivial() {
        let (mut server, handles) = launch(1, None);
        assert!(server.evaluate(&[]).unwrap().is_empty());
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn repeated_batches_reuse_the_farm() {
        let (mut server, handles) = launch(2, None);
        let first = server.evaluate(&batch(12)).unwrap();
        assert_eq!(first.len(), 12);
        for round in 1..3 {
            let evals = server.evaluate(&batch(12)).unwrap();
            assert_eq!(evals, first, "round {round}");
        }
        assert_eq!(server.stats().batches, 3);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn client_death_mid_run_is_survived_with_identical_results() {
        // The victim dies after two shards; the batch must still complete
        // with results identical to a healthy farm's.
        let (mut healthy_server, healthy_handles) = launch(3, None);
        let reference = healthy_server.evaluate(&batch(16)).unwrap();
        healthy_server.shutdown();
        for h in healthy_handles {
            h.join().unwrap();
        }

        let (mut server, handles) = launch(3, Some((1, 2)));
        let genomes = batch(16);
        let evals = server.evaluate(&genomes).unwrap();
        assert_eq!(evals, reference, "results are scheduling-independent");
        // A second batch still works on the surviving clients.
        let again = server.evaluate(&genomes).unwrap();
        assert_eq!(again, reference);
        let stats = server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.clients_lost, 1);
    }

    #[test]
    fn hung_client_is_evicted_with_identical_results() {
        // Reference trajectory from a healthy farm.
        let (mut healthy, healthy_handles) = launch(3, None);
        let reference = healthy.evaluate(&batch(16)).unwrap();
        healthy.shutdown();
        for h in healthy_handles {
            h.join().unwrap();
        }

        // Client 1 wedges after two shards — keeps its connection open,
        // answers nothing. Tuned-down liveness so the eviction fires
        // inside the test budget.
        let (mut server, handles) = launch_faulty(3, Some((1, 2)), FaultKind::Hang);
        server.set_liveness(LivenessConfig {
            heartbeat_interval_ms: 50,
            max_missed_heartbeats: 4,
            deadline_multiplier: 4.0,
            min_dispatch_deadline_ms: 250,
        });
        let evals = server.evaluate(&batch(16)).unwrap();
        assert_eq!(evals, reference, "eviction is scheduling-only");
        // A second batch still works on the survivors.
        let again = server.evaluate(&batch(16)).unwrap();
        assert_eq!(again, reference);
        let stats = server.shutdown();
        // Joining IS the no-hang assertion: the wedged client's thread
        // unblocks when its severed connection surfaces.
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.clients_lost, 1, "only the wedged client fell");
        assert_eq!(stats.evicted_clients, 1, "and it fell by eviction");
    }

    /// Answers every shard one result short: a broken worker build.
    struct Short(Popcount);

    impl ShardWorker for Short {
        fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> Vec<WireEval> {
            let mut evals = self.0.evaluate(genomes, span);
            evals.pop();
            evals
        }
    }

    #[test]
    fn a_short_result_drops_its_client_not_the_batch() {
        let (mut healthy, healthy_handles) = launch(2, None);
        let reference = healthy.evaluate(&batch(16)).unwrap();
        healthy.shutdown();
        for h in healthy_handles {
            h.join().unwrap();
        }

        let workers: Vec<Box<dyn ShardWorker + Send>> =
            vec![Box::new(Short(Popcount::new())), Box::new(Popcount::new())];
        let (mut server, handles) = launch_workers(workers, None, FaultKind::Crash);
        let evals = server.evaluate(&batch(16)).unwrap();
        assert_eq!(evals, reference, "the healthy client carries the batch");
        assert!(server.last_loss().unwrap().contains("results, not"));
        let stats = server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.clients_lost, 1, "only the broken client fell");
    }

    /// A straggler: holds each shard until `gate` opens (10 s at most).
    struct Straggler(Popcount, mpsc::Receiver<()>);

    impl ShardWorker for Straggler {
        fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> Vec<WireEval> {
            let _ = self.1.recv_timeout(Duration::from_secs(10));
            self.0.evaluate(genomes, span)
        }

        fn drain_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
            self.0.drain_artifacts()
        }
    }

    /// Opens the straggler's gate once it has evaluated all of
    /// `batch(16)` but the straggler's one two-genome shard.
    struct Finisher(Popcount, mpsc::Sender<()>);

    impl ShardWorker for Finisher {
        fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> Vec<WireEval> {
            let out = self.0.evaluate(genomes, span);
            if self.0.seen.len() == 14 {
                let _ = self.1.send(());
            }
            out
        }

        fn drain_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
            self.0.drain_artifacts()
        }
    }

    #[test]
    fn a_slow_clients_batch_ends_when_it_answers_with_no_duplicate() {
        // Two clients, eight two-genome shards. The finisher serves
        // seven of them and then sits idle while the straggler holds
        // the eighth: it is never handed a copy, and the batch ends when
        // the straggler answers, with one result and one artifact per
        // shard.
        let (gate, wait) = mpsc::channel();
        let workers: Vec<Box<dyn ShardWorker + Send>> = vec![
            Box::new(Straggler(Popcount::new(), wait)),
            Box::new(Finisher(Popcount::new(), gate)),
        ];
        let (mut server, handles) = launch_workers(workers, None, FaultKind::Crash);
        let genomes = batch(16);
        let evals = server.evaluate(&genomes).unwrap();
        for (g, e) in genomes.iter().zip(&evals) {
            assert_eq!(e.fitness(), g.iter().filter(|&&b| b).count() as f64);
        }
        let stats = server.stats();
        assert_eq!(stats.shards, 8);
        assert_eq!(stats.redispatched_shards, 0, "no shard was copied");
        assert_eq!(stats.duplicate_results, 0);
        assert_eq!(
            server.take_merged_artifacts().0.len(),
            stats.shards,
            "one artifact per shard, all inside the batch"
        );
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn an_evicted_clients_late_result_stays_out_of_later_batches() {
        // Client 0 holds its first shard until the gate opens and is
        // evicted at its dispatch deadline meanwhile; client 1 finishes
        // the batch. The Result client 0 sends once the gate opens must
        // reach no later batch: on a farm that serves job after job,
        // that batch may be another job's.
        let (gate, wait) = mpsc::channel();
        let workers: Vec<Box<dyn ShardWorker + Send>> = vec![
            Box::new(Straggler(Popcount::new(), wait)),
            Box::new(Popcount::new()),
        ];
        let (mut server, mut handles) = launch_workers(workers, None, FaultKind::Crash);
        server.set_liveness(LivenessConfig {
            heartbeat_interval_ms: 50,
            max_missed_heartbeats: 4,
            deadline_multiplier: 1.0,
            min_dispatch_deadline_ms: 100,
        });
        assert_eq!(server.evaluate(&batch(16)).unwrap().len(), 16);
        assert_eq!(server.stats().evicted_clients, 1);
        gate.send(()).unwrap();
        // The evicted client answers, finds its connection severed and
        // exits: its Result is on its way to the server.
        handles.remove(0).join().unwrap();
        for _ in 0..3 {
            assert_eq!(server.evaluate(&batch(16)).unwrap().len(), 16);
        }
        let stats = server.stats();
        assert_eq!(
            stats.redispatched_shards, 1,
            "its shard was handed out again"
        );
        assert_eq!(stats.duplicate_results, 0, "its late Result was ignored");
        assert_eq!(server.take_merged_artifacts().0.len(), stats.shards);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// What a logging client saw, in order. Each test job's payload is
    /// one byte, which names the job here.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        /// A `Job` frame with this payload.
        Job(u8),
        /// A shard evaluated while serving this job.
        Work(u8),
    }

    /// Popcount, logging each shard under the job being served.
    struct Logger {
        job: u8,
        log: Arc<std::sync::Mutex<Vec<Seen>>>,
        inner: Popcount,
    }

    impl ShardWorker for Logger {
        fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> Vec<WireEval> {
            self.log.lock().unwrap().push(Seen::Work(self.job));
            self.inner.evaluate(genomes, span)
        }
    }

    /// A channel client that logs every job it receives and every shard
    /// it evaluates. It serves with a worker from the start, so a `Work`
    /// frame before the first `Job` would end it with a protocol error.
    fn logging_client(mut duplex: Duplex) -> (Arc<std::sync::Mutex<Vec<Seen>>>, JoinHandle<()>) {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut worker = Logger {
            job: 0,
            log: Arc::clone(&log),
            inner: Popcount::new(),
        };
        let handle = std::thread::spawn(move || {
            duplex
                .tx
                .send_frame(&encode_frame(&Frame::Hello { n_flags: 4 }))
                .unwrap();
            let mut client = Client::new(ClientOptions {
                n_flags: 4,
                fail_after_shards: None,
                fault_kind: FaultKind::Crash,
            });
            while let Some(payload) = client.serve(&mut duplex, Some(&mut worker)).unwrap() {
                worker.job = payload[0];
                worker.log.lock().unwrap().push(Seen::Job(payload[0]));
            }
        });
        (log, handle)
    }

    /// The jobs a client received, checking that every shard it
    /// evaluated came after its own job's description.
    fn jobs_received(log: &[Seen]) -> Vec<u8> {
        let mut received = Vec::new();
        for seen in log {
            match *seen {
                Seen::Job(j) => received.push(j),
                Seen::Work(j) => assert_eq!(received.last(), Some(&j), "{log:?}"),
            }
        }
        received
    }

    #[test]
    fn each_client_gets_each_job_once_before_its_first_work_of_it() {
        let (mut server_side, mut logs, mut handles) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..2 {
            let (s, c) = channel_duplex();
            let (log, h) = logging_client(c);
            server_side.push(s);
            logs.push(log);
            handles.push(h);
        }
        let mut server = EvalServer::new(server_side, 4).unwrap();
        server.set_job(vec![1]);
        for _ in 0..2 {
            server.evaluate(&batch(16)).unwrap();
        }
        // A byte-equal description is the same job: no new number, no
        // second Job frame.
        server.set_job(vec![1]);
        server.evaluate(&batch(16)).unwrap();
        server.set_job(vec![2]);
        server.evaluate(&batch(16)).unwrap();
        // A client injected mid-farm gets the current job before any
        // Work.
        let (s, c) = channel_duplex();
        let (late, h) = logging_client(c);
        handles.push(h);
        server.injector().inject(s);
        let mut rounds = 0;
        while !late.lock().unwrap().contains(&Seen::Work(2)) {
            rounds += 1;
            assert!(rounds < 100, "the joiner never got work");
            server.evaluate(&batch(16)).unwrap();
        }
        assert_eq!(server.stats().clients_lost, 0);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
        for log in &logs {
            assert_eq!(jobs_received(&log.lock().unwrap()), [1, 2]);
        }
        assert_eq!(jobs_received(&late.lock().unwrap()), [2]);
    }

    #[test]
    fn work_for_another_job_ends_its_worker_and_the_shard_completes_elsewhere() {
        // Client 1 sits behind a relay that renumbers the job of every
        // Work frame it forwards: its first shard names a job it was
        // never sent. The worker must refuse it, and the server must
        // hand the shard to client 0.
        let (s0, c0) = channel_duplex();
        let (s1, relay_up) = channel_duplex();
        let (relay_down, c1) = channel_duplex();
        let opts = ClientOptions {
            n_flags: 4,
            fail_after_shards: None,
            fault_kind: FaultKind::Crash,
        };
        let healthy = std::thread::spawn(move || run_client(&mut Popcount::new(), c0, &opts));
        let misled = std::thread::spawn(move || run_client(&mut Popcount::new(), c1, &opts));
        let Duplex {
            tx: mut up_tx,
            rx: mut up_rx,
        } = relay_up;
        let Duplex {
            tx: mut down_tx,
            rx: mut down_rx,
        } = relay_down;
        let downstream = std::thread::spawn(move || {
            while let Ok(bytes) = up_rx.recv_frame() {
                let frame = match decode_frame(&bytes).unwrap().0 {
                    Frame::Work {
                        shard,
                        span,
                        job,
                        genomes,
                    } => Frame::Work {
                        shard,
                        span,
                        job: job + 1,
                        genomes,
                    },
                    other => other,
                };
                if down_tx.send_frame(&encode_frame(&frame)).is_err() {
                    return;
                }
            }
        });
        let upstream = std::thread::spawn(move || {
            while let Ok(bytes) = down_rx.recv_frame() {
                if up_tx.send_frame(&bytes).is_err() {
                    return;
                }
            }
        });
        let mut server = EvalServer::new(vec![s0, s1], 4).unwrap();
        server.set_job(vec![7]);
        let genomes = batch(16);
        let evals = server.evaluate(&genomes).unwrap();
        for (g, e) in genomes.iter().zip(&evals) {
            assert_eq!(e.fitness(), g.iter().filter(|&&b| b).count() as f64);
        }
        let stats = server.shutdown();
        assert!(matches!(
            misled.join().unwrap(),
            Err(EvaldError::Protocol("Work frame for another job"))
        ));
        healthy.join().unwrap().unwrap();
        downstream.join().unwrap();
        upstream.join().unwrap();
        assert_eq!(stats.clients_lost, 1, "only the misled client fell");
        assert_eq!(
            stats.redispatched_shards, 1,
            "its shard was handed out again"
        );
        assert_eq!(stats.duplicate_results, 0);
    }

    /// Sleeps this many milliseconds before answering every shard and
    /// reports no time at all: only the server's own clock can see the
    /// delay.
    struct Sleepy(Popcount, u64);

    impl ShardWorker for Sleepy {
        fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> Vec<WireEval> {
            std::thread::sleep(Duration::from_millis(self.1));
            self.0.evaluate(genomes, span)
        }
    }

    #[test]
    fn dispatch_deadlines_scale_with_the_wall_time_the_server_measured() {
        // One client, so a 16-genome batch ships as four 4-genome
        // shards: at least 20 ms each, at least 5 ms per genome, on the
        // server's clock from Work sent to Result received.
        let workers: Vec<Box<dyn ShardWorker + Send>> = vec![Box::new(Sleepy(Popcount::new(), 20))];
        let (mut server, handles) = launch_workers(workers, None, FaultKind::Crash);
        server.set_liveness(LivenessConfig {
            min_dispatch_deadline_ms: 1,
            deadline_multiplier: 1.0,
            ..LivenessConfig::default()
        });
        assert_eq!(server.evaluate(&batch(16)).unwrap().len(), 16);
        let secs = server.cost.observed_secs_per_genome().unwrap_or(0.0);
        assert!(secs >= 0.005, "observed {secs} s/genome");
        let budget = server.dispatch_budget(16).expect("dispatch deadlines on");
        assert!(budget >= Duration::from_millis(80), "budget {budget:?}");
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_lost_client_no_longer_widens_the_dispatch_deadlines() {
        // Client 0 answers one two-genome shard in 100 ms, then drops
        // its connection; client 1 answers at channel speed. Once the
        // server has lost client 0, its estimate must be client 1's
        // alone: averaging in the lost client's 50 ms per genome would
        // put it at 25 ms or more for the rest of the farm's life.
        let workers: Vec<Box<dyn ShardWorker + Send>> = vec![
            Box::new(Sleepy(Popcount::new(), 100)),
            Box::new(Popcount::new()),
        ];
        let (mut server, handles) = launch_workers(workers, Some((0, 1)), FaultKind::Crash);
        for round in 0.. {
            assert_eq!(server.evaluate(&batch(16)).unwrap().len(), 16);
            if server.stats().clients_lost == 1 {
                break;
            }
            assert!(round < 8, "client 0 was never lost");
        }
        let secs = server.cost.observed_secs_per_genome().expect("observed");
        assert!(
            secs < 0.0125,
            "{secs} s/genome: the lost client still counts"
        );
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn absurd_dispatch_wall_time_caps_the_dispatch_deadline() {
        // However long the observed dispatches took, the next
        // dispatch's deadline must be capped, not a panic in the
        // dispatch loop.
        let (mut server, handles) = launch(1, None);
        for _ in 0..MIN_COST_OBSERVATIONS {
            server.cost.observe(0, 16, 1e300);
        }
        assert_eq!(server.dispatch_budget(16), Some(MAX_DISPATCH_DEADLINE));
        assert_eq!(server.evaluate(&batch(16)).unwrap().len(), 16);
        assert_eq!(server.dispatch_budget(16), Some(MAX_DISPATCH_DEADLINE));
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn losing_every_client_is_an_error_not_a_hang() {
        let (mut server, handles) = launch(2, Some((0, 1)));
        // Kill the second client too (fail plans only cover one, so use a
        // batch large enough that the survivor carries it, then drop the
        // server to tear everything down — here we only assert the
        // one-client-dead path still completes, and that a server with
        // zero clients errors).
        let evals = server.evaluate(&batch(16)).unwrap();
        assert_eq!(evals.len(), 16);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }

        // All clients dead from the start: handshake fails.
        let (s, c) = channel_duplex();
        drop(c);
        assert!(matches!(
            EvalServer::new(vec![s], 4),
            Err(EvaldError::NoClients)
        ));
    }

    #[test]
    fn dropping_a_live_unix_client_severs_the_socket() {
        // A client that fails the handshake over a *stream* transport
        // must be actively disconnected (socket shutdown), or it would
        // block in recv forever and joining its thread would deadlock —
        // dropping the server's write-half clone alone is not enough.
        let listener = Listener::bind(TransportKind::Unix, None).unwrap();
        let endpoint = listener.endpoint().clone();
        let handle = std::thread::spawn(move || {
            let duplex = endpoint.connect().unwrap();
            let mut w = Popcount::new();
            // Wrong width: the server drops us; run_client must return
            // (Disconnected) instead of blocking.
            let _ = run_client(
                &mut w,
                duplex,
                &ClientOptions {
                    n_flags: 9,
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        });
        let server_end = listener.accept().unwrap();
        assert!(matches!(
            EvalServer::new(vec![server_end], 4),
            Err(EvaldError::NoClients)
        ));
        // The join completing IS the assertion.
        handle.join().unwrap();
    }

    #[test]
    fn dropping_the_server_without_shutdown_releases_unix_clients() {
        // An embedder error path may drop the server between launch and
        // shutdown(); Drop must still sever connections so clients and
        // readers unblock (join completing is the assertion).
        let listener = Listener::bind(TransportKind::Unix, None).unwrap();
        let endpoint = listener.endpoint().clone();
        let handle = std::thread::spawn(move || {
            let duplex = endpoint.connect().unwrap();
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                duplex,
                &ClientOptions {
                    n_flags: 4,
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        });
        let server_end = listener.accept().unwrap();
        let server = EvalServer::new(vec![server_end], 4).unwrap();
        drop(server);
        handle.join().unwrap();
    }

    #[test]
    fn injected_clients_join_the_rotation_mid_run() {
        let (mut server, mut handles) = launch(1, None);
        server.set_job(vec![1, 2, 3]);
        let injector = server.injector();
        let (s, c) = channel_duplex();
        handles.push(std::thread::spawn(move || {
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                c,
                &ClientOptions {
                    n_flags: 4,
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        }));
        // Ids continue past the initial farm.
        assert_eq!(injector.inject(s), 1);
        // The joiner's Hello races the batch; keep evaluating until the
        // admission lands (each batch drains the event queue).
        let mut rounds = 0;
        while server.stats().clients_joined == 0 {
            rounds += 1;
            assert!(rounds < 100, "joiner never admitted");
            let evals = server.evaluate(&batch(16)).unwrap();
            assert_eq!(evals.len(), 16);
        }
        let stats = server.stats();
        assert_eq!(stats.clients_joined, 1);
        assert_eq!(stats.clients_lost, 0);
        assert!(
            stats.cost_observations > 0,
            "dispatch times fed the cost model"
        );
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn injected_client_with_wrong_width_is_rejected() {
        let (mut server, mut handles) = launch(1, None);
        let injector = server.injector();
        let (s, c) = channel_duplex();
        handles.push(std::thread::spawn(move || {
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                c,
                &ClientOptions {
                    n_flags: 9, // farm speaks 4
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        }));
        injector.inject(s);
        let mut rounds = 0;
        while server.stats().clients_lost == 0 {
            rounds += 1;
            assert!(rounds < 100, "mismatched joiner never rejected");
            server.evaluate(&batch(8)).unwrap();
        }
        assert_eq!(server.stats().clients_joined, 0);
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn width_mismatch_fails_the_handshake() {
        let (s, c) = channel_duplex();
        let handle = std::thread::spawn(move || {
            let mut w = Popcount::new();
            let _ = run_client(
                &mut w,
                c,
                &ClientOptions {
                    n_flags: 9, // server expects 4
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            );
        });
        assert!(matches!(
            EvalServer::new(vec![s], 4),
            Err(EvaldError::NoClients)
        ));
        // The dropped client unblocks once its channel closes.
        handle.join().unwrap();
    }
}
