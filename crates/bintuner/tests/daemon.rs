//! The tuning daemon end to end, over real sockets: multi-tenant job
//! multiplexing onto one shared farm must preserve the bit-identity
//! contract (every daemon job ≡ the same tune run solo), duplicate
//! submissions must be pure cache hits (zero compiles), admission
//! control must reject with types rather than block unboundedly, and —
//! the PR's reason to exist — losing every farm worker mid-batch must
//! fail *the job*, never the daemon.

use bintuner::daemon::wire::{JobState, RejectCode, WireTuneOutcome};
use bintuner::daemon::{Daemon, DaemonClient, DaemonConfig, DaemonHandle};
use bintuner::{ArtifactStore, ProcessFarm, TuneResult, Tuner, TunerConfig, WorkerMode};
use evald::{FaultPlan, ServiceConfig, TransportKind};
use minicc::ast::{Expr, LValue, Module, Stmt};
use std::path::PathBuf;
use testutil::{small_tuner, tiny_loop_module, ScratchStore};

const EVALS: u64 = 60;

/// The template every daemon in this suite serves jobs from; solo
/// reference runs use the same preset so trajectories are comparable
/// bit for bit.
fn base() -> TunerConfig {
    small_tuner(EVALS as usize)
}

fn daemon_config(transport: TransportKind, store: &ScratchStore) -> DaemonConfig {
    DaemonConfig {
        transport,
        base: base(),
        store_path: Some(store.path_buf()),
        farm: ServiceConfig {
            clients: 2,
            ..ServiceConfig::default()
        },
        queue_limit: 8,
        runners: 1,
        ..DaemonConfig::default()
    }
}

/// The solo (daemon-free, store-free) run a daemon job must be
/// bit-identical to. An empty/absent store never changes a trajectory —
/// that equivalence is pinned by the persistent-cache differentials —
/// so the cold solo run is the reference for warm daemon jobs too.
fn solo(module: &Module, seed: u64) -> TuneResult {
    Tuner::new(TunerConfig { seed, ..base() })
        .tune(module)
        .expect("solo reference run")
}

fn assert_outcome_matches_solo(outcome: &WireTuneOutcome, solo: &TuneResult, what: &str) {
    assert_eq!(outcome.best_flags, solo.best_flags, "{what}: best_flags");
    assert_eq!(
        outcome.best_ncd_bits,
        solo.best_ncd.to_bits(),
        "{what}: best_ncd bits"
    );
    assert_eq!(
        outcome.iterations, solo.iterations as u64,
        "{what}: iterations"
    );
    assert_eq!(outcome.stopped_by, solo.stopped_by, "{what}: stop reason");
}

fn submit_and_fetch(
    client: &mut DaemonClient,
    tenant: &str,
    module: &Module,
    seed: u64,
) -> Result<WireTuneOutcome, String> {
    let job = client
        .submit(tenant, module, seed, EVALS, false, 0)
        .expect("submit over the wire")
        .expect("admitted");
    client.fetch_result(job).expect("fetch over the wire")
}

/// Honor the CI hook: persist the daemon's exposition page where the
/// workflow can pick it up as a build artifact.
fn export_metrics(daemon: &DaemonHandle) {
    if let Ok(path) = std::env::var("DAEMON_METRICS_OUT") {
        std::fs::write(path, daemon.registry().render_text()).expect("write metrics artifact");
    }
}

#[test]
fn duplicate_submission_is_a_pure_cache_hit_bit_identical_across_tenants() {
    let store = ScratchStore::new("daemon_dup");
    let module = tiny_loop_module("daemon_dup_mod", 6);
    let reference = solo(&module, 0x0DAE);

    let daemon = Daemon::launch(daemon_config(TransportKind::Unix, &store)).unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let first = submit_and_fetch(&mut client, "alice", &module, 0x0DAE).expect("first job");
    assert_outcome_matches_solo(&first, &reference, "cold daemon job vs solo");
    assert!(first.compiles > 0, "the cold job really compiled");

    // Same module, same seed, *different tenant*: every evaluation is
    // served from the shared store alice already paid for.
    let second = submit_and_fetch(&mut client, "bob", &module, 0x0DAE).expect("duplicate job");
    assert_eq!(
        second.compiles, 0,
        "a duplicate submission must be a pure cache hit"
    );
    assert!(second.persistent_hits > 0, "served from the shared store");
    assert_outcome_matches_solo(&second, &reference, "duplicate daemon job vs solo");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.submitted, 2);
    assert_eq!(snapshot.accepted, 2);
    assert_eq!(snapshot.completed, 2);
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.compiles_total, first.compiles);
    assert!(snapshot.persistent_hits_total >= second.persistent_hits);
    let registry = daemon.registry();
    let compiles = "bintuner_daemon_compiles_total";
    assert_eq!(registry.label_values(compiles), ["alice", "bob"]);
    assert_eq!(
        registry.counter_value(compiles, Some("alice")),
        Some(first.compiles)
    );
    assert_eq!(
        registry.counter_value(compiles, Some("bob")),
        Some(0),
        "bob rode alice's compiles"
    );
    export_metrics(&daemon);
    daemon.shutdown();
}

#[test]
fn concurrent_distinct_jobs_each_match_their_solo_runs() {
    let store = ScratchStore::new("daemon_concurrent");
    let module_a = tiny_loop_module("daemon_conc_a", 5);
    let module_b = tiny_loop_module("daemon_conc_b", 7);
    let solo_a = solo(&module_a, 0xA11CE);
    let solo_b = solo(&module_b, 0xB0B);

    let daemon = Daemon::launch(DaemonConfig {
        runners: 2,
        ..daemon_config(TransportKind::Tcp, &store)
    })
    .unwrap();

    // Two tenants, two connections, both jobs in flight at once — their
    // batches interleave on the one shared farm.
    let outcomes = std::thread::scope(|scope| {
        let jobs = [("alice", &module_a, 0xA11CE_u64), ("bob", &module_b, 0xB0B)];
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(tenant, module, seed)| {
                let addr = daemon.addr().clone();
                scope.spawn(move || {
                    let mut client = DaemonClient::connect(&addr).unwrap();
                    submit_and_fetch(&mut client, tenant, module, seed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });

    let a = outcomes[0].as_ref().expect("alice's job");
    let b = outcomes[1].as_ref().expect("bob's job");
    assert_outcome_matches_solo(a, &solo_a, "concurrent job A vs solo");
    assert_outcome_matches_solo(b, &solo_b, "concurrent job B vs solo");
    // Distinct modules share the store without cross-talk: neither job
    // hit the other's entries (keys carry the module hash).
    assert_eq!(a.persistent_hits, 0, "no cross-module store pollution");
    assert_eq!(b.persistent_hits, 0, "no cross-module store pollution");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.completed, 2);
    assert_eq!(
        snapshot.farm_launches, 1,
        "one farm served both modules, batch by batch"
    );
    daemon.shutdown();
}

#[test]
fn process_farm_artifacts_reach_the_store_and_warm_a_renamed_module() {
    // Farm workers compile in their own processes, so their stage
    // artifacts reach the shared store only through the finishing job's
    // hand-off. A renamed module misses every fitness key (keys hash
    // the module content, name included) while the body-hash-keyed
    // artifacts transfer: the second job's store hits are served
    // exclusively by what the first job's farm persisted.
    let store = ScratchStore::new("daemon_farm_artifacts");
    let first = tiny_loop_module("daemon_farm_artifacts_a", 6);
    let renamed = tiny_loop_module("daemon_farm_artifacts_b", 6);
    let reference = solo(&renamed, 0xFA12);

    let daemon = Daemon::launch(DaemonConfig {
        farm: ServiceConfig {
            clients: 2,
            transport: TransportKind::Tcp,
            workers: WorkerMode::Processes(ProcessFarm {
                worker_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_bintuner"))),
                ..ProcessFarm::default()
            }),
            ..ServiceConfig::default()
        },
        ..daemon_config(TransportKind::Unix, &store)
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let cold = submit_and_fetch(&mut client, "alice", &first, 0xFA12).expect("cold job");
    assert!(cold.compiles > 0, "the cold job really compiled");
    assert!(
        !ArtifactStore::load(store.path()).is_empty(),
        "the farm's stage artifacts never reached the artifact log"
    );

    let warm = submit_and_fetch(&mut client, "bob", &renamed, 0xFA12).expect("renamed job");
    assert_eq!(warm.persistent_hits, 0, "no fitness key may overlap");
    assert!(
        warm.store_ast_hits > 0,
        "persisted farm artifacts must serve stage-1 hits"
    );
    assert_outcome_matches_solo(&warm, &reference, "renamed daemon job vs solo");
    assert_eq!(
        daemon.metrics_snapshot().farm_launches,
        1,
        "one process farm served both modules"
    );
    daemon.shutdown();
}

/// Losing one worker of two is not a farm loss: the batch finishes on
/// the survivor, and the daemon relaunches the farm at full strength
/// before a later batch — a launch, not a failure, and no strike.
#[test]
fn a_farm_that_loses_one_worker_is_relaunched_at_full_strength() {
    let store = ScratchStore::new("daemon_lost_worker");
    let module_a = tiny_loop_module("daemon_lost_worker_a", 5);
    let module_b = tiny_loop_module("daemon_lost_worker_b", 6);
    let daemon = Daemon::launch(DaemonConfig {
        // Client 0 of the first farm drops its connection after its
        // first shard; the relaunched farm is healthy.
        farm_fault_once: Some(FaultPlan::crash(0, 1)),
        ..daemon_config(TransportKind::Unix, &store)
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();
    for (tenant, module, seed) in [("alice", &module_a, 0x1057_u64), ("bob", &module_b, 0xB0B2)] {
        let outcome = submit_and_fetch(&mut client, tenant, module, seed)
            .expect("a lost worker fails no job");
        assert_outcome_matches_solo(&outcome, &solo(module, seed), tenant);
    }
    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.completed, 2);
    assert_eq!(snapshot.farm_failures, 0, "one lost worker is no farm loss");
    assert_eq!(
        snapshot.farm_launches, 2,
        "the farm was relaunched once, at full strength"
    );
    daemon.shutdown();
}

/// The tentpole's prerequisite, end to end over the wire: every farm
/// worker dies mid-batch; the job fails with the service error, the
/// daemon keeps serving, the store stays sound, and the *next* job on
/// the same daemon relaunches a fresh farm and succeeds bit-identically.
fn farm_loss_fails_the_job_not_the_daemon(transport: TransportKind) {
    // One store per transport: both variants run in one test process at
    // once, and a store the other variant's retry filled would serve
    // this job's first batch without the farm.
    let store = ScratchStore::new(&format!("daemon_farm_loss_{transport}"));
    let module = tiny_loop_module("daemon_loss_mod", 6);
    let reference = solo(&module, 0x10E);

    let daemon = Daemon::launch(DaemonConfig {
        farm: ServiceConfig {
            // A one-client farm whose only client dies after its first
            // shard: the next dispatch finds no live clients — the
            // all-workers-dead abort, deterministically.
            clients: 1,
            ..ServiceConfig::default()
        },
        farm_fault_once: Some(FaultPlan::crash(0, 1)),
        ..daemon_config(transport, &store)
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let job = client
        .submit("alice", &module, 0x10E, EVALS, false, 0)
        .unwrap()
        .expect("admitted");
    let message = client
        .fetch_result(job)
        .expect("the daemon answered — it survived the farm loss")
        .expect_err("the job itself must fail");
    assert!(
        message.contains("evaluation service failed"),
        "the tenant sees the typed service failure, got: {message}"
    );
    let (state, _, _) = client.status(job).unwrap();
    assert_eq!(state, JobState::Failed);

    // Same daemon, same connection: the fault was consumed, so the next
    // job relaunches a healthy farm and completes — bit-identical to
    // solo, proving the shared store wasn't corrupted by the crash.
    let retry = submit_and_fetch(&mut client, "alice", &module, 0x10E).expect("retry succeeds");
    assert_outcome_matches_solo(&retry, &reference, "post-crash retry vs solo");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.failed, 1);
    assert_eq!(snapshot.completed, 1);
    assert!(snapshot.farm_failures >= 1, "the loss was counted");
    assert!(snapshot.farm_launches >= 2, "the retry got a fresh farm");
    daemon.shutdown();
}

#[test]
fn farm_loss_fails_the_job_not_the_daemon_unix() {
    farm_loss_fails_the_job_not_the_daemon(TransportKind::Unix);
}

#[test]
fn farm_loss_fails_the_job_not_the_daemon_tcp() {
    farm_loss_fails_the_job_not_the_daemon(TransportKind::Tcp);
}

#[test]
fn admission_control_rejects_with_types_not_blocking() {
    let store = ScratchStore::new("daemon_admission");
    let module = tiny_loop_module("daemon_admission_mod", 4);
    // A zero-slot queue rejects every submission — the deterministic
    // way to pin the reject type and that per-tenant accounting sees it.
    let daemon = Daemon::launch(DaemonConfig {
        queue_limit: 0,
        ..daemon_config(TransportKind::Unix, &store)
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let (code, detail) = client
        .submit("carol", &module, 1, EVALS, false, 0)
        .unwrap()
        .expect_err("a full queue rejects");
    assert_eq!(code, RejectCode::QueueFull);
    assert!(detail.contains("queue full"), "{detail}");

    // Garbage module bytes are rejected at admission too, not queued.
    // (Reusing the raw frame path the client normally hides.)
    let (state, _, _) = client.status(999).unwrap();
    assert_eq!(state, JobState::Unknown);
    assert!(!client.cancel(999).unwrap(), "nothing queued to cancel");

    let snapshot = daemon.metrics_snapshot();
    assert_eq!(snapshot.submitted, 1);
    assert_eq!(snapshot.rejected, 1);
    assert_eq!(snapshot.accepted, 0);
    let registry = daemon.registry();
    assert_eq!(
        registry.label_values("bintuner_daemon_rejects_total"),
        ["carol"]
    );
    assert_eq!(
        registry.counter_value("bintuner_daemon_rejects_total", Some("carol")),
        Some(1)
    );
    daemon.shutdown();
}

#[test]
fn a_module_naming_an_undeclared_variable_is_rejected_and_others_still_run() {
    // The module decodes, but `main` assigns to a `ghost` it never
    // declared: admission validation refuses it, so no runner ever
    // compiles it — and the next tenant's job runs as if it never came.
    let store = ScratchStore::new("daemon_bad_module");
    let mut ghost = tiny_loop_module("daemon_ghost_mod", 3);
    ghost.funcs[0]
        .body
        .insert(0, Stmt::Assign(LValue::Var("ghost".into()), Expr::Const(1)));
    let module = tiny_loop_module("daemon_after_ghost_mod", 5);
    let reference = solo(&module, 0x6057);

    let daemon = Daemon::launch(daemon_config(TransportKind::Unix, &store)).unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();
    let (code, detail) = client
        .submit("mallory", &ghost, 1, EVALS, false, 0)
        .unwrap()
        .expect_err("an undeclared variable is refused at admission");
    assert_eq!(code, RejectCode::BadModule);
    assert!(detail.contains("ghost"), "{detail}");

    let outcome = submit_and_fetch(&mut client, "alice", &module, 0x6057)
        .expect("the next tenant's job completes");
    assert_outcome_matches_solo(&outcome, &reference, "job after a refused module vs solo");
    let registry = daemon.registry();
    assert_eq!(
        registry.counter_value("bintuner_daemon_rejects_total", Some("mallory")),
        Some(1)
    );
    assert_eq!(daemon.metrics_snapshot().completed, 1);
    daemon.shutdown();
}

#[test]
fn shutdown_is_clean_with_idle_connections_open() {
    let store = ScratchStore::new("daemon_shutdown");
    let daemon = Daemon::launch(daemon_config(TransportKind::Unix, &store)).unwrap();
    let DaemonHandle { .. } = &daemon;
    let _idle = DaemonClient::connect(daemon.addr()).unwrap();
    // Shutdown with a connected-but-silent client must not hang —
    // returning from this test is the assertion.
    daemon.shutdown();
}

/// The `bintuner` binary's daemon surface. A socket carries frames to
/// worker processes only, so `--farm-transport` without
/// `--process-workers` is a usage error before anything launches; a
/// process-farm daemon prints where it listens, and `bintuner metrics`
/// renders its registry from there.
#[test]
fn the_daemon_cli_refuses_a_socket_thread_farm_and_serves_metrics() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    /// Kills the daemon however the test ends: it serves until killed.
    struct Running(Child);
    impl Drop for Running {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let bin = env!("CARGO_BIN_EXE_bintuner");

    let mut refused = Running(
        Command::new(bin)
            .args(["daemon", "--tcp", "--farm-transport", "tcp"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("run the bintuner binary"),
    );
    // Bounded: a daemon that accepts these flags never exits.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = refused.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "`--farm-transport` without `--process-workers` launched a daemon"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(2), "a usage error");

    let mut daemon = Running(
        Command::new(bin)
            .args(["daemon", "--tcp", "--clients", "1", "--process-workers"])
            .args(["--farm-transport", "unix"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("run the bintuner binary"),
    );
    let mut banner = String::new();
    BufReader::new(daemon.0.stdout.take().unwrap())
        .read_line(&mut banner)
        .expect("read the daemon's banner");
    let addr = banner
        .trim_end()
        .strip_prefix("tuned listening on tcp:")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));
    let out = Command::new(bin)
        .args(["metrics", "--tcp", addr])
        .output()
        .expect("run bintuner metrics");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("# TYPE bintuner_daemon_queue_depth gauge"),
        "{text}"
    );
}
