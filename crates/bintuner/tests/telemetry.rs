//! The btel telemetry plane end to end, and its central contract: turning
//! it on is a pure observation — `TelemetryMode::On` must leave every
//! tuning trajectory bit-identical to `Off` (the seed semantics) on every
//! backend, while the registry fills with real counts, the tracer stitches
//! worker-side stage spans across the farm wire into the server's dispatch
//! spans, and a live `tuned` daemon serves its exposition page and span
//! dump over the v2 wire.

use bintuner::daemon::{Daemon, DaemonClient, DaemonConfig};
use bintuner::{
    ProcessFarm, ServiceConfig, TransportKind, TuneResult, Tuner, TunerConfig, WorkerMode,
};
use std::path::PathBuf;
use testutil::{cached_tuner, small_tuner, tiny_loop_module, tune_on_farm, ScratchStore};

/// The worker binary process-farm tests re-exec.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_bintuner"))
}

fn with_telemetry(base: TunerConfig) -> TunerConfig {
    TunerConfig {
        telemetry: btel::TelemetryMode::On,
        ..base
    }
}

/// The determinism contract from the service/farm suites, applied across
/// the telemetry switch: every record, every fitness bit, every cache
/// flag. Measured `wall_seconds` / `ast_produce_seconds` are wall-clock
/// telemetry and deliberately excluded.
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
        assert_eq!(x.best_ncd.to_bits(), y.best_ncd.to_bits());
        assert_eq!(x.elapsed_seconds.to_bits(), y.elapsed_seconds.to_bits());
        assert_eq!(
            x.cache_hit, y.cache_hit,
            "{what}: iteration {}",
            x.iteration
        );
        assert_eq!(x.persistent_hit, y.persistent_hit);
        assert_eq!(x.ast_reused, y.ast_reused);
        assert_eq!(x.lower_reused, y.lower_reused);
    }
    assert_eq!(a.engine_stats.evaluations, b.engine_stats.evaluations);
    assert_eq!(a.engine_stats.cache_hits, b.engine_stats.cache_hits);
    assert_eq!(
        a.engine_stats.persistent_hits,
        b.engine_stats.persistent_hits
    );
    assert_eq!(a.engine_stats.compiles, b.engine_stats.compiles);
    assert_eq!(a.engine_stats.full_compiles, b.engine_stats.full_compiles);
    assert_eq!(a.engine_stats.ast_reuse, b.engine_stats.ast_reuse);
    assert_eq!(a.engine_stats.lower_reuse, b.engine_stats.lower_reuse);
}

#[test]
fn telemetry_on_is_bit_identical_to_off_on_every_backend() {
    let bench = corpus::by_name("462.libquantum").unwrap();
    let off = Tuner::new(small_tuner(60)).tune(&bench.module).unwrap();
    assert!(off.registry.is_none(), "Off mode allocates no registry");
    assert!(off.spans.is_empty(), "Off mode records no spans");

    // In-process engine with the full plane live.
    let local = Tuner::new(with_telemetry(small_tuner(60)))
        .tune(&bench.module)
        .unwrap();
    assert_identical_runs(&off, &local, "in-process, telemetry on");

    // Thread-client farm over channels.
    let threads = tune_on_farm(
        with_telemetry(small_tuner(60)),
        &ServiceConfig {
            clients: 2,
            transport: TransportKind::Channel,
            ..ServiceConfig::default()
        },
        &bench.module,
    )
    .unwrap()
    .result;
    assert_identical_runs(&off, &threads, "thread service, telemetry on");

    // Process farm over TCP: real address spaces, spans over the wire.
    let tcp = tune_on_farm(
        with_telemetry(small_tuner(60)),
        &ServiceConfig {
            clients: 2,
            transport: TransportKind::Tcp,
            workers: WorkerMode::Processes(ProcessFarm {
                worker_binary: Some(worker_binary()),
                ..ProcessFarm::default()
            }),
            ..ServiceConfig::default()
        },
        &bench.module,
    )
    .unwrap()
    .result;
    assert_identical_runs(&off, &tcp, "tcp process farm, telemetry on");

    // The registry saw the run it watched: per-tier cache counters agree
    // with the engine's own logical stats, batch spans were recorded.
    for (run, what) in [(&local, "local"), (&threads, "threads"), (&tcp, "tcp")] {
        let registry = run.registry.as_ref().expect("telemetry registry");
        assert_eq!(
            registry.counter_value("bintuner_engine_evaluations_total", None),
            Some(run.engine_stats.evaluations as u64),
            "{what}: evaluations counter"
        );
        assert_eq!(
            registry.counter_value("bintuner_engine_cache_hits_total", Some("memo")),
            Some(run.engine_stats.cache_hits as u64),
            "{what}: memo-tier hit counter"
        );
        assert!(
            registry
                .counter_value("bintuner_engine_cache_hits_total", Some("memo"))
                .unwrap()
                > 0,
            "{what}: a 10-genome population must repeat genomes"
        );
        let text = registry.render_text();
        assert!(text.contains("bintuner_engine_stage_seconds_bucket"));
        assert!(run.spans.iter().any(|s| s.name == "batch"), "{what}: spans");
    }

    // In-process, the scoring tail of every compile is timed: one
    // `encode` and one `score` sample (and span) per compile. (A farm's
    // stage samples stay in its clients' registries.)
    let registry = local.registry.as_ref().unwrap();
    assert!(local.engine_stats.compiles > 0);
    for stage in ["encode", "score"] {
        let samples = registry
            .histogram_with("bintuner_engine_stage_seconds", "", "stage", stage)
            .count();
        assert_eq!(
            samples, local.engine_stats.compiles as u64,
            "{stage} samples"
        );
        let spans = local.spans.iter().filter(|s| s.name == stage).count();
        assert_eq!(spans, local.engine_stats.compiles, "{stage} spans");
    }
}

/// Every stage sample and span the in-process engine records matches
/// its logical counters, on the serial and the threaded pool and with
/// the artifact cache on and off.
#[test]
fn stage_samples_reconcile_with_engine_counters() {
    let bench = corpus::by_name("456.hmmer").unwrap();
    for workers in [1, 2] {
        for artifact_cache in [true, false] {
            let what = format!("{workers} workers, artifact cache {artifact_cache}");
            let run = Tuner::new(TunerConfig {
                workers,
                artifact_cache,
                ..with_telemetry(small_tuner(120))
            })
            .tune(&bench.module)
            .unwrap();
            let registry = run.registry.as_ref().expect("telemetry registry");
            let stats = run.engine_stats;
            assert!(stats.compiles > 0, "{what}: compiles");
            if artifact_cache {
                // Every reuse class occurs, so each stage is reconciled
                // on every path through a miss.
                assert!(
                    stats.ast_reuse > 0 && stats.lower_reuse > 0,
                    "{what}: reuse"
                );
            } else {
                assert_eq!(stats.full_compiles, stats.compiles, "{what}: all full");
            }
            let samples = |stage| {
                registry
                    .histogram_with("bintuner_engine_stage_seconds", "", "stage", stage)
                    .count() as usize
            };
            let spans = |name| run.spans.iter().filter(|s| s.name == name).count();
            let batches = registry
                .histogram("bintuner_engine_batch_seconds", "")
                .count() as usize;
            assert!(batches > 0, "{what}: batches");
            assert_eq!(samples("check"), batches, "{what}: check samples");
            assert_eq!(spans("batch"), batches, "{what}: batch spans");
            assert_eq!(samples("ast"), stats.full_compiles, "{what}: ast samples");
            let lowered = stats.full_compiles + stats.ast_reuse;
            if workers == 1 {
                assert_eq!(samples("lower"), lowered, "{what}: lower samples");
            } else {
                // A same-batch lowered artifact still being built on
                // another worker is recomputed, and timed again.
                assert!(samples("lower") >= lowered, "{what}: lower samples");
            }
            for stage in ["mir", "encode", "score"] {
                assert_eq!(samples(stage), stats.compiles, "{what}: {stage} samples");
            }
            let misses = registry
                .histogram("bintuner_engine_miss_seconds", "")
                .count() as usize;
            assert_eq!(misses, stats.compiles, "{what}: miss samples");
            for stage in ["check", "ast", "lower", "mir", "encode", "score"] {
                assert_eq!(spans(stage), samples(stage), "{what}: {stage} spans");
            }
        }
    }
}

#[test]
fn artifact_log_is_indexed_at_most_once_and_only_by_tunes_with_misses() {
    let store = ScratchStore::new("telemetry_artifact_load");
    let module = tiny_loop_module("telemetry_artifact_load_a", 6);
    let renamed = tiny_loop_module("telemetry_artifact_load_b", 6);
    let config = || with_telemetry(cached_tuner(60, Some(&store)));
    let index_builds = |run: &TuneResult| {
        let registry = run.registry.as_ref().expect("telemetry registry");
        registry
            .histogram("bintuner_store_artifact_load_seconds", "")
            .count()
    };

    let cold = Tuner::new(config()).tune(&module).unwrap();
    assert!(cold.engine_stats.compiles > 0);
    assert_eq!(index_builds(&cold), 1, "cold tune");

    // A replay served wholly from the fitness store never opens the
    // artifact log, and writes nothing anywhere in the store.
    let before = testutil::store_snapshot(store.path());
    let warm = Tuner::new(config()).tune(&module).unwrap();
    assert_eq!(warm.engine_stats.compiles, 0, "the replay is zero-compile");
    assert_eq!(index_builds(&warm), 0, "zero-compile warm tune");
    assert_eq!(
        testutil::store_snapshot(store.path()),
        before,
        "the store was written"
    );

    // A renamed module misses every fitness key: the log is indexed
    // once, before the first miss, and serves artifact hits.
    let misses = Tuner::new(config()).tune(&renamed).unwrap();
    assert!(misses.engine_stats.compiles > 0);
    assert!(misses.engine_stats.store_ast_hits > 0);
    assert_eq!(index_builds(&misses), 1, "tune with misses");
}

#[test]
fn process_farm_trace_stitches_worker_spans_into_server_dispatch() {
    let bench = corpus::by_name("473.astar").unwrap();
    let farm = tune_on_farm(
        with_telemetry(small_tuner(50)),
        &ServiceConfig {
            clients: 2,
            transport: TransportKind::Tcp,
            workers: WorkerMode::Processes(ProcessFarm {
                worker_binary: Some(worker_binary()),
                ..ProcessFarm::default()
            }),
            ..ServiceConfig::default()
        },
        &bench.module,
    )
    .unwrap();

    // Server-side dispatch spans are roots recorded by the farm's tracer.
    let dispatch: std::collections::HashSet<u64> = farm
        .spans
        .iter()
        .filter(|s| s.name == "dispatch")
        .map(|s| {
            assert_eq!(s.parent, 0, "dispatch spans are roots");
            assert!(s.id < 1 << 48, "server ids stay below every worker base");
            s.id
        })
        .collect();
    assert!(!dispatch.is_empty(), "the farm dispatched shards");

    // Worker-side stage spans crossed the TCP wire: ids carved from the
    // per-client base, parents pointing straight at a dispatch span.
    let worker_stages: Vec<_> = farm
        .spans
        .iter()
        .filter(|s| s.id >= 1 << 48 && matches!(s.name.as_str(), "ast" | "lower" | "mir"))
        .collect();
    assert!(
        !worker_stages.is_empty(),
        "worker compile stages crossed the wire"
    );
    for span in worker_stages {
        assert!(
            dispatch.contains(&span.parent),
            "worker span {} ({}) must parent to a server dispatch span, got {}",
            span.id,
            span.name,
            span.parent
        );
    }

    // The JSONL rendering mirrors the stitched trace line for line.
    let jsonl = btel::spans_to_jsonl(&farm.spans);
    assert_eq!(jsonl.lines().count(), farm.spans.len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(jsonl.contains("\"name\":\"dispatch\""));
}

#[test]
fn daemon_serves_metrics_and_traces_over_the_v2_wire() {
    let store = ScratchStore::new("telemetry_daemon");
    let module = tiny_loop_module("telemetry_daemon_mod", 6);
    let daemon = Daemon::launch(DaemonConfig {
        transport: TransportKind::Unix,
        base: small_tuner(50),
        store_path: Some(store.path_buf()),
        farm: ServiceConfig {
            clients: 2,
            ..ServiceConfig::default()
        },
        queue_limit: 4,
        runners: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.addr()).unwrap();

    let job = client
        .submit("alice", &module, 0xBE1, 50, false, 0)
        .expect("submit")
        .expect("admitted");
    client
        .fetch_result(job)
        .expect("fetch")
        .expect("job completed");

    // The exposition page carries live per-tenant throughput and the
    // queue gauges, freshly drained.
    let text = client.metrics_text().expect("metrics over the wire");
    assert!(text.contains("# TYPE bintuner_daemon_queue_depth gauge"));
    assert!(text.contains("bintuner_daemon_queue_depth 0"));
    assert!(text.contains("bintuner_daemon_running 0"));
    assert!(text.contains("bintuner_daemon_jobs_total{tenant=\"alice\"} 1"));
    let compiles = daemon
        .registry()
        .counter_value("bintuner_daemon_compiles_total", Some("alice"))
        .expect("per-tenant compile counter");
    assert!(compiles > 0, "the cold job really compiled");
    assert!(text.contains(&format!(
        "bintuner_daemon_compiles_total{{tenant=\"alice\"}} {compiles}"
    )));
    assert!(text.contains("bintuner_daemon_job_seconds_count 1"));
    // Job outcomes and farm launches are registry families too — the
    // snapshot is only a view of them.
    assert!(text.contains("bintuner_daemon_completed_total{tenant=\"alice\"} 1"));
    assert!(text.contains("bintuner_daemon_farm_launches_total 1"));

    // And the span ring has the job's root span, served as JSONL.
    let jsonl = client.trace_dump().expect("trace dump over the wire");
    assert!(jsonl.contains("\"name\":\"job\""));
    daemon.shutdown();
}
