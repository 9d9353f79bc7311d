//! The process farm end to end: pre-forked worker *processes* (re-execed
//! from the `bintuner` binary, connecting back over TCP or Unix sockets)
//! must be bit-identical to the in-process engine — the same determinism
//! contract the thread-client suite (`service_vs_local.rs`) pins, now
//! across real address spaces, plus the farm-only behaviors: worker
//! death mid-run (SIGKILL, not just a polite disconnect), respawned
//! workers absorbed by the reconnect acceptor, and the adaptive cost
//! model's telemetry flowing end to end.

use bintuner::service::ServiceHandle;
use bintuner::{
    Daemon, DaemonConfig, FaultPlan, MissExecutor, ProcessFarm, ServiceConfig, TransportKind,
    TuneResult, Tuner, TunerConfig, WorkerMode,
};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use testutil::{cached_tuner, small_tuner, tiny_loop_module, tune_on_farm, ScratchStore};

/// The worker binary every farm in this suite re-execs.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_bintuner"))
}

fn process_farm() -> WorkerMode {
    WorkerMode::Processes(ProcessFarm {
        worker_binary: Some(worker_binary()),
        ..ProcessFarm::default()
    })
}

/// The determinism contract, trajectory included (`wall_seconds` is the
/// one field wall-clock may touch).
fn assert_identical_runs(a: &TuneResult, b: &TuneResult, what: &str) {
    assert_eq!(a.best_flags, b.best_flags, "{what}: best genome");
    assert_eq!(
        a.best_ncd.to_bits(),
        b.best_ncd.to_bits(),
        "{what}: best fitness"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.stopped_by, b.stopped_by, "{what}: stop reason");
    assert_eq!(a.db.rows().len(), b.db.rows().len(), "{what}: history");
    for (x, y) in a.db.rows().iter().zip(b.db.rows()) {
        assert_eq!(x.flags, y.flags, "{what}: iteration {}", x.iteration);
        assert_eq!(
            x.ncd.to_bits(),
            y.ncd.to_bits(),
            "{what}: iteration {}",
            x.iteration
        );
        assert_eq!(x.cache_hit, y.cache_hit);
        assert_eq!(x.persistent_hit, y.persistent_hit);
    }
    assert_eq!(a.engine_stats.evaluations, b.engine_stats.evaluations);
    assert_eq!(a.engine_stats.compiles, b.engine_stats.compiles);
    assert_eq!(a.engine_stats.cache_hits, b.engine_stats.cache_hits);
}

#[test]
fn process_farm_is_bit_identical_on_both_stream_transports() {
    let bench = corpus::by_name("462.libquantum").unwrap();
    let local = Tuner::new(small_tuner(60)).tune(&bench.module).unwrap();

    for (transport, clients) in [(TransportKind::Tcp, 2), (TransportKind::Unix, 2)] {
        let run = tune_on_farm(
            small_tuner(60),
            &ServiceConfig {
                clients,
                transport,
                workers: process_farm(),
                fault: None,
                liveness: Default::default(),
            },
            &bench.module,
        )
        .unwrap();
        assert_identical_runs(
            &local,
            &run.result,
            &format!("process workers over {transport}"),
        );
        let summary = &run.summary;
        assert_eq!(summary.transport, transport);
        assert_eq!(summary.clients, clients);
        assert_eq!(summary.clients_lost, 0, "no worker died");
        assert_eq!(summary.workers_killed, 0, "every worker drained cleanly");
        assert!(summary.shards > 0);
        // The server timed its dispatches to real worker processes.
        assert!(summary.cost_observations > 0);
    }
}

#[test]
fn killing_a_worker_process_mid_run_changes_nothing() {
    let bench = corpus::by_name("473.astar").unwrap();
    let local = Tuner::new(small_tuner(50)).tune(&bench.module).unwrap();
    let killed = tune_on_farm(
        small_tuner(50),
        &ServiceConfig {
            clients: 2,
            transport: TransportKind::Tcp,
            workers: process_farm(),
            fault: Some(FaultPlan::crash(1, 1)),
            liveness: Default::default(),
        },
        &bench.module,
    )
    .unwrap();
    assert_identical_runs(&local, &killed.result, "kill-one-worker-process");
    let summary = &killed.summary;
    assert_eq!(summary.transport, TransportKind::Tcp);
    assert_eq!(summary.clients_lost, 1, "exactly the planned death");
}

#[test]
fn process_farm_persists_stage_artifacts_for_warm_starts() {
    // Farm workers compile in their own address spaces, so their stage
    // artifacts exist nowhere the persistent store can see unless the
    // `Result` frames ship them home. Before that fold, a warm start
    // behind `WorkerMode::Processes` silently reran full pipelines the
    // in-process engine would have served from the artifact store. A
    // *renamed* module makes every fitness key miss (keys hash the
    // module content, name included) while the body-hash-keyed
    // artifacts transfer — so the warm run's store hits below are
    // served exclusively by artifacts the cold run persisted.
    let local_store = ScratchStore::new("farm_artifacts_local");
    let farm_store = ScratchStore::new("farm_artifacts_farm");
    let first = tiny_loop_module("farm_artifacts_a", 6);
    let renamed = tiny_loop_module("farm_artifacts_b", 6);
    let farm = ServiceConfig {
        clients: 2,
        transport: TransportKind::Unix,
        workers: process_farm(),
        fault: None,
        liveness: Default::default(),
    };
    let with_farm = |module| tune_on_farm(cached_tuner(90, Some(&farm_store)), &farm, module);

    let cold = with_farm(&first).unwrap();
    let cold_farm = &cold.result;
    Tuner::new(cached_tuner(90, Some(&local_store)))
        .tune(&first)
        .unwrap();
    let summary = &cold.summary;
    assert_eq!(summary.transport, TransportKind::Unix);
    assert!(
        summary.merged_artifacts > 0,
        "the farm never shipped a stage artifact on a Result frame"
    );

    let warm_local = Tuner::new(cached_tuner(90, Some(&local_store)))
        .tune(&renamed)
        .unwrap();
    let warm_farm = with_farm(&renamed).unwrap().result;
    assert_identical_runs(&warm_local, &warm_farm, "warm renamed module");
    // All fitness keys miss: the store hits are pure artifact traffic.
    assert_eq!(warm_farm.engine_stats.persistent_hits, 0);
    assert_eq!(
        warm_farm.engine_stats.store_ast_hits, warm_local.engine_stats.store_ast_hits,
        "backends disagree on persisted-AST hits"
    );
    assert_eq!(
        warm_farm.engine_stats.store_lower_hits, warm_local.engine_stats.store_lower_hits,
        "backends disagree on persisted-binary hits"
    );
    assert!(
        warm_local.engine_stats.store_ast_hits > 0,
        "the differential is vacuous without at least one store hit"
    );
    assert!(
        warm_farm.engine_stats.full_compiles < cold_farm.engine_stats.full_compiles,
        "warm farm run reran every full pipeline"
    );
}

/// Deterministic pseudo-random genome batch (pure function of the
/// arguments — the same batch always evaluates to the same fitnesses).
fn batch(n_flags: usize, n: usize, salt: usize) -> Vec<Vec<bool>> {
    (0..n)
        .map(|i| {
            (0..n_flags)
                .map(|j| (i * 31 + j * 7 + salt * 13).is_multiple_of(5))
                .collect()
        })
        .collect()
}

/// Drive the farm directly (no GA) so the chaos hooks are controllable:
/// SIGKILL a worker mid-run, respawn one, and check both the results and
/// the reconnect/cost telemetry.
#[test]
fn sigkill_and_respawn_are_absorbed_without_changing_results() {
    let bench = corpus::by_name("429.mcf").unwrap();
    let kind = minicc::CompilerKind::Gcc;
    let arch = binrep::Arch::X86;
    let n_flags = minicc::CompilerProfile::new(kind).n_flags();
    let cfg = ServiceConfig {
        clients: 2,
        transport: TransportKind::Tcp,
        workers: process_farm(),
        fault: None,
        liveness: Default::default(),
    };

    // Reference results from a healthy farm.
    let reference: Vec<Vec<u64>> = {
        let handle =
            ServiceHandle::launch_with(&cfg, kind, &bench.module, arch, true, None).unwrap();
        let out = (0..3)
            .map(|salt| {
                handle
                    .execute(&batch(n_flags, 10, salt))
                    .unwrap()
                    .into_iter()
                    .map(|r| r.fitness.to_bits())
                    .collect()
            })
            .collect();
        let (summary, _) = handle.finish();
        assert_eq!(summary.clients_lost, 0);
        out
    };

    // Chaos run: kill worker 0 after the first batch, respawn a
    // replacement, and keep evaluating the same batches.
    let handle = ServiceHandle::launch_with(&cfg, kind, &bench.module, arch, true, None).unwrap();
    let first: Vec<u64> = handle
        .execute(&batch(n_flags, 10, 0))
        .unwrap()
        .into_iter()
        .map(|r| r.fitness.to_bits())
        .collect();
    assert_eq!(first, reference[0]);

    assert!(handle.kill_worker(0), "worker 0 was alive to kill");
    assert!(!handle.kill_worker(0), "a worker dies once");
    let second: Vec<u64> = handle
        .execute(&batch(n_flags, 10, 1))
        .unwrap()
        .into_iter()
        .map(|r| r.fitness.to_bits())
        .collect();
    assert_eq!(second, reference[1], "SIGKILL mid-run moved a result");

    let respawned_id = handle.spawn_worker().expect("respawn a worker");
    assert!(respawned_id >= 2, "ids continue past the initial farm");
    // Absorption is evented: the joiner is admitted while batches drain
    // the event queue. Loop until the telemetry shows it landed.
    let mut rounds = 0;
    while handle.stats().expect("live server").clients_joined == 0 {
        rounds += 1;
        assert!(rounds < 200, "respawned worker never absorbed");
        let again: Vec<u64> = handle
            .execute(&batch(n_flags, 10, 2))
            .unwrap()
            .into_iter()
            .map(|r| r.fitness.to_bits())
            .collect();
        assert_eq!(again, reference[2], "reconnect mid-run moved a result");
    }

    let (summary, _) = handle.finish();
    assert_eq!(summary.transport, TransportKind::Tcp);
    assert_eq!(summary.clients_joined, 1, "the respawn was absorbed");
    assert!(summary.clients_lost >= 1, "the SIGKILL was observed");
    assert!(summary.workers_killed >= 1, "the kill hook counted");
    assert!(summary.cost_observations > 0);
}

/// The headline bugfix, pinned at the handle level: SIGKILL *every*
/// worker mid-run and the next batch must come back as a clean
/// [`genetic::EvalAbort`] with the transport cause recorded — never a
/// `panic!` (the pre-fix behavior, which would have taken a whole
/// multi-tenant daemon down with one lost farm).
#[test]
fn killing_every_worker_fails_the_batch_not_the_process() {
    let module = tiny_loop_module("farm_total_loss", 5);
    let kind = minicc::CompilerKind::Gcc;
    let n_flags = minicc::CompilerProfile::new(kind).n_flags();
    let cfg = ServiceConfig {
        clients: 2,
        transport: TransportKind::Unix,
        workers: process_farm(),
        fault: None,
        liveness: Default::default(),
    };
    let handle =
        ServiceHandle::launch_with(&cfg, kind, &module, binrep::Arch::X86, true, None).unwrap();
    // A healthy batch first, proving the farm really was up.
    assert_eq!(handle.execute(&batch(n_flags, 8, 0)).unwrap().len(), 8);
    assert!(handle.kill_worker(0), "worker 0 was alive to kill");
    assert!(handle.kill_worker(1), "worker 1 was alive to kill");
    let abort = handle
        .execute(&batch(n_flags, 8, 1))
        .expect_err("a farm with every worker dead must abort the batch, not the process");
    assert!(
        std::error::Error::source(&abort).is_some(),
        "the abort chains its transport cause: {abort}"
    );
    let cause = handle
        .take_failure()
        .expect("the failure is recorded for take_failure");
    assert!(
        matches!(
            *cause,
            evald::EvaldError::NoClients | evald::EvaldError::Disconnected
        ),
        "total worker loss surfaces as a client-loss error, got {cause}"
    );
    // Dropping the dead handle must still tear down cleanly (join every
    // thread, reap both corpses) — returning from this test is the
    // assertion.
    drop(handle);
}

#[test]
fn invalid_module_fails_promptly_and_tears_the_service_down() {
    // The error path where the baseline cannot compile, on a Unix
    // process farm: the workers connect and greet, but neither they nor
    // the server engine can build the module, so the tune fails with a
    // typed error and the dropped ServiceHandle tears the farm down —
    // acceptor and socket file, reader threads, worker processes. The
    // test completing, three times in a row, is the teardown assertion:
    // a leak would leave blocked threads and unreaped workers behind.
    use minicc::ast::{Expr, FuncDef, Module, Stmt};
    let mut bad = Module::new("invalid");
    // Two functions with the same name fail validation → every baseline
    // compile (server's and each worker's) fails.
    bad.funcs.push(FuncDef::new(
        "main",
        vec![],
        vec![Stmt::Return(Expr::Const(1))],
    ));
    bad.funcs.push(FuncDef::new(
        "main",
        vec![],
        vec![Stmt::Return(Expr::Const(2))],
    ));
    for _ in 0..3 {
        let err = tune_on_farm(
            small_tuner(40),
            &ServiceConfig {
                clients: 2,
                transport: TransportKind::Unix,
                workers: process_farm(),
                fault: None,
                liveness: Default::default(),
            },
            &bad,
        )
        .unwrap_err();
        // Either shape is a prompt, clean failure: Baseline when the
        // server engine fails first (the farm launched), Service when
        // the farm itself fails to come up.
        assert!(
            matches!(
                err,
                bintuner::TuneError::Service(_) | bintuner::TuneError::Baseline(_)
            ),
            "{err}"
        );
    }
}

/// The one topology check: thread workers use the channel and worker
/// processes use a socket. Both the service and the daemon refuse every
/// other pairing before anything launches — the daemon at its own
/// launch, not at the first job's lazy farm launch, where each refusal
/// would count as a quarantine strike against an innocent module.
#[test]
fn process_workers_refuse_the_channel_transport() {
    let bench = corpus::by_name("429.mcf").unwrap();
    for (workers, transport, what) in [
        (
            process_farm(),
            TransportKind::Channel,
            "processes over a channel",
        ),
        (
            WorkerMode::Threads,
            TransportKind::Unix,
            "threads over unix",
        ),
        (WorkerMode::Threads, TransportKind::Tcp, "threads over tcp"),
    ] {
        let cfg = ServiceConfig {
            clients: 1,
            transport,
            workers,
            fault: None,
            liveness: Default::default(),
        };
        let err = ServiceHandle::launch_with(
            &cfg,
            minicc::CompilerKind::Gcc,
            &bench.module,
            binrep::Arch::X86,
            true,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(err, evald::EvaldError::Protocol(_)),
            "service, {what}: must be a config error, got {err}"
        );
        let err = Daemon::launch(DaemonConfig {
            farm: cfg,
            ..DaemonConfig::default()
        })
        .err()
        .unwrap_or_else(|| panic!("daemon, {what}: launched"));
        assert!(
            matches!(err, evald::EvaldError::Protocol(_)),
            "daemon, {what}: must be a config error, got {err}"
        );
    }
}

/// Child half of `warm_start_survives_sigkill_during_save`: tune with a
/// persistent store in a tight loop until killed. Rotating module names
/// keeps every save writing fresh records, so a SIGKILL at an arbitrary
/// instant regularly lands inside a store save or creation.
#[test]
#[ignore = "child process of warm_start_survives_sigkill_during_save"]
fn churn_child_tunes_forever() {
    let Ok(dir) = std::env::var("BINTUNER_CHURN_STORE") else {
        return;
    };
    for i in 0usize.. {
        let module = tiny_loop_module(&format!("churn_{}", i % 4), 3 + i % 4);
        let cfg = TunerConfig {
            cache_path: Some(PathBuf::from(&dir)),
            ..small_tuner(30)
        };
        Tuner::new(cfg).tune(&module).expect("churn child tune");
    }
}

/// Warm start under churn: a tune killed by SIGKILL at an arbitrary
/// point — including mid-save and mid-creation — must leave a store
/// the next run can use, cold-start-or-better, never an error.
#[test]
fn warm_start_survives_sigkill_during_save() {
    let store = ScratchStore::new("farm_churn");
    let module = tiny_loop_module("churn_0", 3);
    let reference = Tuner::new(small_tuner(30)).tune(&module).unwrap();

    for round in 0..4u64 {
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "churn_child_tunes_forever", "--ignored"])
            .env("BINTUNER_CHURN_STORE", store.path())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn churn child");
        // Let it get at least one save in flight, staggering the kill
        // point round to round so it lands in different save phases.
        let deadline = Instant::now() + Duration::from_secs(20);
        while !store.path().exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(40 + round * 230));
        if let Some(status) = child.try_wait().unwrap() {
            // It must die by our hand, not by a crash of its own.
            let mut err = String::new();
            use std::io::Read as _;
            child.stderr.take().unwrap().read_to_string(&mut err).ok();
            panic!("churn child exited on its own ({status}): {err}");
        }
        child.kill().unwrap(); // SIGKILL on unix
        child.wait().unwrap();
    }

    // Rerun after the crashes: whatever state the kills left behind must
    // load (or cold-start) and replay the reference trajectory exactly.
    let warm_cfg = || TunerConfig {
        cache_path: Some(store.path_buf()),
        ..small_tuner(30)
    };
    let first = Tuner::new(warm_cfg()).tune(&module).unwrap();
    assert_eq!(first.best_flags, reference.best_flags, "after-crash rerun");
    assert_eq!(first.best_ncd.to_bits(), reference.best_ncd.to_bits());
    assert!(
        first.engine_stats.compiles <= reference.engine_stats.compiles,
        "cold-start-or-better: {} > {}",
        first.engine_stats.compiles,
        reference.engine_stats.compiles
    );
    assert_eq!(first.persistence.as_ref().unwrap().save_error, None);

    // That rerun saved cleanly, so a second one must be genuinely warm.
    let second = Tuner::new(warm_cfg()).tune(&module).unwrap();
    assert!(second.engine_stats.persistent_hits > 0);
    assert_eq!(second.best_flags, reference.best_flags);
    assert!(second.engine_stats.compiles < reference.engine_stats.compiles);
}

#[test]
fn every_corpus_module_round_trips_the_codec() {
    // The job payload must be able to carry any module the reproduction
    // tunes — the whole benign corpus, bit-exactly.
    for bench in corpus::all_benign() {
        let bytes = minicc::codec::encode_module(&bench.module);
        let decoded =
            minicc::codec::decode_module(&bytes).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(decoded, bench.module, "{}", bench.name);
    }
}

#[test]
fn the_binary_without_the_worker_flag_is_a_usage_error() {
    let out = std::process::Command::new(worker_binary())
        .output()
        .expect("run the bintuner binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(!out.stderr.is_empty(), "usage goes to stderr");
}
